"""Sans-I/O session tests: pure message pumping, no transport.

Drives :class:`~repro.secagg.statemachine.ClientSession` /
:class:`~repro.secagg.statemachine.ServerSession` with a hand-rolled
in-test pump — the smallest possible transport — and covers what the
transports themselves don't: version/PRG negotiation rejection at Hello
(the typed failure path), strict phase/sender validation, the
session-level guarantees a transport cannot give (a refused datagram
leaves nothing behind; a client shares keys once, masks once — over at
least ``t`` participants — and answers one unmask request a round), and
the wire accounting ledger.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AggregationError, ConfigurationError, NegotiationError
from repro.secagg.field import DEFAULT_FIELD
from repro.secagg.kernels import DEFAULT_MASK_PRG
from repro.secagg.keys import TOY_GROUP
from repro.secagg.bonawitz import (
    ROUND_ADVERTISE,
    ROUND_MASKED_INPUT,
    ROUND_SHARE_KEYS,
    ROUND_UNMASK,
)
from repro.secagg.statemachine import (
    PHASE_DONE,
    PHASE_TAGS,
    ClientSession,
    ServerSession,
)
from repro.secagg.wire import (
    MSG_MASKED_INPUT,
    MSG_SEALED_DELIVERY,
    PROTOCOL_V1,
    Hello,
    MaskedInput,
    Reject,
    Roster,
    SealedDelivery,
    SealedUpload,
    UnmaskRequest,
    decode_message,
    encode_message,
    intern_header,
)
from repro.secagg.wire import _frame
from repro.telemetry import MetricsRegistry, MetricsReport

MODULUS = 2**12
DIMENSION = 8


def make_sessions(n=5, threshold=3, seed=0, versions=None, resumable=False):
    rng = np.random.default_rng(seed)
    inputs = rng.integers(0, MODULUS, size=(n, DIMENSION), dtype=np.int64)
    clients = {
        u: ClientSession(
            index=u,
            vector=inputs[u - 1],
            modulus=MODULUS,
            threshold=threshold,
            rng=np.random.default_rng(seed + u),
            group=TOY_GROUP,
            version=(versions or {}).get(u, PROTOCOL_V1),
        )
        for u in range(1, n + 1)
    }
    server = ServerSession(
        MODULUS, DIMENSION, threshold, group=TOY_GROUP, resumable=resumable
    )
    return inputs, clients, server


def pump(clients, server, skip=frozenset()):
    """Run the full protocol synchronously; returns the recovered sum."""
    for u in sorted(clients):
        server.receive(b"".join(clients[u].start()), sender=u)
    deliveries = server.advance()
    for _ in range(3):
        for u in sorted(deliveries):
            if u in skip:
                continue
            out = clients[u].handle(deliveries[u])
            if out and clients[u].rejected is None:
                server.receive(b"".join(out), sender=u)
        deliveries = server.advance()
    return server.modular_sum


def open_share_keys(clients, server):
    """Run the advertise phase; returns each client's honest share-keys
    upload."""
    return open_phase(clients, server, ROUND_SHARE_KEYS)


def _resized(upload, header, rows=slice(None), columns=slice(None)):
    """The one-frame upload with some envelopes or bytes cut away."""
    _, message = decode_message(upload)
    return encode_message(
        SealedUpload(message.sender, message.ciphertexts[rows, columns]),
        header,
    )


def _truncated_roster(upload, sender, header):
    return _resized(upload, header, rows=slice(None, -1))


def _one_envelope_only(upload, sender, header):
    return _resized(upload, header, rows=slice(None, 1))


def _wrong_ciphertext_length(upload, sender, header):
    return _resized(upload, header, columns=slice(None, -1))


def _upload_sent_twice(upload, sender, header):
    return upload + upload


def _mixed_message_types(upload, sender, header):
    return upload + encode_message(Hello(sender=sender), header)


MALFORMED_SHARE_KEYS = [
    _truncated_roster,
    _one_envelope_only,
    _wrong_ciphertext_length,
    _upload_sent_twice,
    _mixed_message_types,
]


def open_unmask_requests(clients, server, silent=frozenset()):
    """Run the round up to the unmask request, ``silent`` going quiet
    after sharing keys; returns each survivor's request datagram."""
    for u in sorted(clients):
        server.receive(b"".join(clients[u].start()), sender=u)
    deliveries = server.advance()
    for phase in range(2):
        for u in sorted(deliveries):
            if phase == 1 and u in silent:
                continue
            server.receive(
                b"".join(clients[u].handle(deliveries[u])), sender=u
            )
        deliveries = server.advance()
    return deliveries


def open_unmask(clients, server, silent=frozenset()):
    """:func:`open_unmask_requests`, answered: each survivor's honest
    unmask upload."""
    requests = open_unmask_requests(clients, server, silent)
    return {
        u: b"".join(clients[u].handle(requests[u])) for u in sorted(requests)
    }


def open_phase(clients, server, phase):
    """Run a dropout-free round up to ``phase``; returns each client's
    honest upload for it."""
    uploads = {u: b"".join(clients[u].start()) for u in sorted(clients)}
    for _ in range(phase):
        uploads = close_phase(clients, server, uploads)
    return uploads


def close_phase(clients, server, uploads):
    """Deliver what the phase still lacks, close it, and return the
    next phase's honest uploads."""
    for u in sorted(set(uploads) - server.received()):
        server.receive(uploads[u], sender=u)
    deliveries = server.advance()
    return {
        u: b"".join(clients[u].handle(deliveries[u]))
        for u in sorted(deliveries)
    }


def _rewritten(upload, changes):
    """Re-encode an unmask upload with ``changes(response)`` applied."""
    header, response = decode_message(upload)
    return encode_message(
        dataclasses.replace(response, **changes(response)), header
    )


def _missing_key_share(upload):
    return _rewritten(
        upload, lambda response: {"key_shares": response.key_shares[:-1]}
    )


def _extra_key_share(upload):
    # One key-share row more than the announced dropouts: a key share of
    # a *survivor*, the share the security rule says must never travel
    # together with that survivor's seed share.
    def add_one(response):
        keys = response.key_shares
        return {"key_shares": np.vstack([keys, keys[:1]])}

    return _rewritten(upload, add_one)


def _wrong_peer_set(upload):
    # Format 3 names no peers: a seed column for another survivor set
    # is one of another length.
    return _rewritten(
        upload, lambda response: {"seed_shares": response.seed_shares[:-1]}
    )


def _wrong_limb_count(upload):
    return _rewritten(
        upload, lambda response: {"key_shares": response.key_shares[:, :-1]}
    )


def _out_of_field_value(upload):
    # A uint64 that is not a field element.
    def inflate(response):
        keys = response.key_shares.copy()
        keys[0, 0] = DEFAULT_FIELD.prime
        return {"key_shares": keys}

    return _rewritten(upload, inflate)


def _out_of_field_seed_value(upload):
    def inflate(response):
        seeds = response.seed_shares.copy()
        seeds[-1] = 2**64 - 1
        return {"seed_shares": seeds}

    return _rewritten(upload, inflate)


def _two_frames(upload):
    return upload + upload


MALFORMED_UNMASK = [
    _missing_key_share,
    _extra_key_share,
    _wrong_peer_set,
    _wrong_limb_count,
    _out_of_field_value,
    _out_of_field_seed_value,
    _two_frames,
]


def _spliced(upload, at, extra, cut=0):
    """The unmask upload with ``extra`` bytes in place of ``cut`` bytes
    at body offset ``at``, its declared length grown to match: a
    well-framed frame whose body no longer fits its own counts."""
    _, response = decode_message(upload)
    values = response.seed_shares.size + response.key_shares.size
    start = len(upload) - (13 + 8 * values) + at
    frame = bytearray(upload[:start] + extra + upload[start + cut :])
    frame[4:8] = len(frame).to_bytes(4, "little")
    return bytes(frame)


def _mixed_points(upload):
    # Format 2's ``xs`` column beside the seed shares, one point shifted:
    # format 3 has no place for a point.
    _, response = decode_message(upload)
    points = np.full(response.seed_shares.size, 2, dtype="<u4")
    points[-1] += 1
    return _spliced(upload, 13, points.tobytes())


def _foreign_key_point(upload):
    # A point in front of the first key share, the way format 2 wrote
    # one per dropout.
    _, response = decode_message(upload)
    return _spliced(
        upload, 13 + 8 * response.seed_shares.size, (3).to_bytes(4, "little")
    )


def _wider_than_64_bit_value(upload):
    # A 16-byte key-share value where the layout has eight.
    _, response = decode_message(upload)
    return _spliced(
        upload,
        13 + 8 * response.seed_shares.size,
        (1 << 70).to_bytes(16, "little"),
        cut=8,
    )


#: What format 2 could say and format 3 has no place for: the decoder
#: refuses each as a body that does not fit its counts.
INEXPRESSIBLE_UNMASK = {
    _mixed_points: "24 trailing body bytes",
    _foreign_key_point: "4 trailing body bytes",
    _wider_than_64_bit_value: "8 trailing body bytes",
}


class TestPureProtocolPump:
    def test_sum_matches_plain_modular_sum(self):
        inputs, clients, server = make_sessions()
        total = pump(clients, server)
        np.testing.assert_array_equal(
            total, np.mod(inputs.sum(axis=0), MODULUS)
        )
        assert server.included == frozenset(clients)

    def test_sessions_emit_no_side_channel(self):
        # Sans-I/O: a session only ever returns bytes; nothing is sent
        # until the caller moves them.  Starting two clients and never
        # delivering leaves the server untouched.
        _, clients, server = make_sessions(n=3, threshold=2)
        clients[1].start()
        clients[2].start()
        assert server.received() == frozenset()

    def test_expected_tracks_the_shrinking_participant_set(self):
        _, clients, server = make_sessions(n=4, threshold=2)
        for u in (1, 2, 3):  # client 4 never speaks
            server.receive(b"".join(clients[u].start()), sender=u)
        deliveries = server.advance()
        assert server.expected == frozenset({1, 2, 3})
        assert set(deliveries) == {1, 2, 3}

    def test_phase_ready_once_everyone_delivered(self):
        _, clients, server = make_sessions(n=3, threshold=2)
        for u in sorted(clients):
            server.receive(b"".join(clients[u].start()), sender=u)
        deliveries = server.advance()
        assert not server.phase_ready()
        for u in sorted(deliveries):
            server.receive(b"".join(clients[u].handle(deliveries[u])), sender=u)
        assert server.phase_ready()


class TestNegotiationFailurePath:
    def test_unknown_version_rejected_at_hello_with_typed_error(self):
        inputs, clients, server = make_sessions(
            n=5, threshold=3, versions={2: 9}
        )
        for u in sorted(clients):
            server.receive(b"".join(clients[u].start()), sender=u)
        assert server.rejections == {
            2: "unsupported protocol version 9 (round speaks 1)"
        }
        deliveries = server.advance()
        # The rejected client gets a typed Reject, not roster bytes.
        _, reject = decode_message(deliveries[2])
        assert isinstance(reject, Reject)
        assert "unsupported protocol version 9" in reject.reason
        assert clients[2].handle(deliveries[2]) == []
        assert isinstance(clients[2].rejected, NegotiationError)
        # The round carries on without it and the sum stays exact.
        for _ in range(3):
            for u in sorted(deliveries):
                if u == 2:
                    continue
                out = clients[u].handle(deliveries[u])
                server.receive(b"".join(out), sender=u)
            deliveries = server.advance()
        np.testing.assert_array_equal(
            server.modular_sum,
            np.mod(np.delete(inputs, 1, axis=0).sum(axis=0), MODULUS),
        )
        assert server.included == frozenset({1, 3, 4, 5})

    def test_mismatched_prg_backend_rejected_at_hello(self):
        # A peer of an older release speaks "sha256-ctr" into a round on
        # the one suite: refused at Hello, naming both, counted by reason.
        registry = MetricsRegistry()
        _, clients, _ = make_sessions(n=4, threshold=2)
        server = ServerSession(
            MODULUS, DIMENSION, 2, group=TOY_GROUP, metrics=registry
        )
        forged = encode_message(
            Hello(sender=3), intern_header(PROTOCOL_V1, "sha256-ctr")
        )
        for u in sorted(clients):
            server.receive(
                forged if u == 3 else b"".join(clients[u].start()), sender=u
            )
        assert "'sha256-ctr'" in server.rejections[3]
        assert f"{DEFAULT_MASK_PRG.name!r}" in server.rejections[3]
        report = MetricsReport(snapshot=registry.snapshot())
        assert report.counter(
            "secagg_negotiation_rejects_total", reason="mask-prg"
        ) == 1
        _, reject = decode_message(server.advance()[3])
        assert isinstance(reject, Reject)
        assert "'sha256-ctr'" in reject.reason

    def test_rejections_below_threshold_raise_negotiation_error(self):
        _, clients, server = make_sessions(
            n=3, threshold=3, versions={1: 7, 2: 7}
        )
        for u in sorted(clients):
            server.receive(b"".join(clients[u].start()), sender=u)
        with pytest.raises(NegotiationError, match="after rejecting"):
            server.advance()

    def test_negotiation_error_is_an_aggregation_error(self):
        # Round-level handlers that abort on AggregationError keep
        # working; callers can still distinguish the typed subclass.
        assert issubclass(NegotiationError, AggregationError)

    def test_rejected_client_holds_no_round_state(self):
        _, clients, server = make_sessions(n=3, threshold=2, versions={1: 5})
        for u in sorted(clients):
            server.receive(b"".join(clients[u].start()), sender=u)
        deliveries = server.advance()
        clients[1].handle(deliveries[1])
        with pytest.raises(AggregationError, match="rejected at Hello"):
            clients[1].handle(deliveries[1])

    def test_server_must_accept_at_least_one_version(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            ServerSession(
                MODULUS,
                DIMENSION,
                2,
                group=TOY_GROUP,
                accept_versions=frozenset(),
            )


class TestStrictValidation:
    def test_spoofed_sender_rejected(self):
        _, clients, server = make_sessions(n=3, threshold=2)
        frames = b"".join(clients[2].start())
        with pytest.raises(AggregationError, match="claims sender"):
            server.receive(frames, sender=1)

    def test_duplicate_hello_rejected(self):
        _, clients, server = make_sessions(n=3, threshold=2)
        frames = b"".join(clients[1].start())
        server.receive(frames, sender=1)
        with pytest.raises(AggregationError, match="duplicate Hello"):
            server.receive(frames, sender=1)

    def test_advertise_without_hello_rejected(self):
        _, clients, server = make_sessions(n=3, threshold=2)
        hello, advertise = clients[1].start()
        with pytest.raises(AggregationError, match="without a Hello"):
            server.receive(advertise, sender=1)

    def test_out_of_phase_message_rejected(self):
        _, clients, server = make_sessions(n=3, threshold=2)
        for u in sorted(clients):
            server.receive(b"".join(clients[u].start()), sender=u)
        server.advance()
        late_hello = encode_message(Hello(sender=1), clients[1].header)
        with pytest.raises(AggregationError, match="advertise phase"):
            server.receive(late_hello, sender=1)

    def test_header_mismatch_mid_round_is_a_negotiation_error(self):
        _, clients, server = make_sessions(n=3, threshold=2)
        for u in sorted(clients):
            server.receive(b"".join(clients[u].start()), sender=u)
        deliveries = server.advance()
        # Rewrite the roster broadcast's PRG name in place (same length,
        # so the framing stays valid): the client must refuse the
        # foreign header rather than mis-expand masks later.
        name = DEFAULT_MASK_PRG.name.encode("ascii")
        foreign = deliveries[1].replace(name, name.upper())
        with pytest.raises(NegotiationError, match="speaking"):
            clients[1].handle(foreign)

    def test_receive_requires_transport_authenticated_sender(self):
        """Omitting ``sender`` must hard-fail, never fall back to the
        frame-claimed origin.

        The old fallback (adopt the first frame's claimed sender when
        the caller passes none) let any connection impersonate any
        client by writing the victim's id into its frames — the exact
        attack sender binding exists to stop.
        """
        _, clients, server = make_sessions(n=3, threshold=2)
        frames = b"".join(clients[1].start())
        with pytest.raises(
            AggregationError, match="transport-authenticated"
        ):
            server.receive(frames)
        with pytest.raises(
            AggregationError, match="transport-authenticated"
        ):
            server.receive(frames, sender=None)
        # The failed calls must not have half-ingested anything: the
        # honest, bound delivery still works.
        server.receive(frames, sender=1)
        assert server.received() == frozenset({1})

    def test_spoofed_bulk_envelopes_rejected_without_fallback(self):
        """The bulk (sealed-envelope) path must also refuse a frame
        whose claimed sender differs from the bound one."""
        _, clients, server = make_sessions(n=3, threshold=2)
        for u in sorted(clients):
            server.receive(b"".join(clients[u].start()), sender=u)
        deliveries = server.advance()
        mailbox = b"".join(clients[1].handle(deliveries[1]))
        # Client 1's share-keys mailbox arrives over client 2's bound
        # connection: impersonation, regardless of what the frames say.
        with pytest.raises(AggregationError, match="claims sender"):
            server.receive(mailbox, sender=2)
        # And with no sender at all it is refused outright.
        with pytest.raises(
            AggregationError, match="transport-authenticated"
        ):
            server.receive(mailbox)

    @pytest.mark.parametrize("malform", MALFORMED_SHARE_KEYS)
    def test_malformed_share_keys_upload_refused_before_any_state(
        self, malform
    ):
        """A share-keys upload is one frame: an envelope per member of
        the sorted roster at the round's envelope length, once; anything
        else is refused at receive(), naming the sender, with nothing
        stored.  (The rows are opaque, so their *order* is not the
        server's to check: an upload has no recipient column to get
        wrong.)"""
        _, clients, server = make_sessions(n=4, threshold=2)
        uploads = open_share_keys(clients, server)
        bad = malform(uploads[2], 2, clients[2].header)
        with pytest.raises(AggregationError, match="client 2 "):
            server.receive(bad, sender=2)
        assert server.received() == frozenset()
        assert server.stats.phase_summary("share-keys") is None
        # The refusal is not sticky: the honest datagram still lands.
        server.receive(uploads[2], sender=2)
        assert server.received() == frozenset({2})

    def test_second_share_keys_upload_refused(self):
        _, clients, server = make_sessions(n=3, threshold=2)
        uploads = open_share_keys(clients, server)
        server.receive(uploads[1], sender=1)
        with pytest.raises(AggregationError, match="client 1 sent a second"):
            server.receive(uploads[1], sender=1)
        assert server.received() == frozenset({1})

    @pytest.mark.parametrize(
        "malform", [_truncated_roster, _wrong_ciphertext_length]
    )
    def test_malformed_first_mover_cannot_poison_honest_uploads(
        self, malform
    ):
        """Uploads are validated against the roster and the computed
        length, never against the first upload seen."""
        inputs, clients, server = make_sessions(n=5, threshold=3)
        uploads = open_share_keys(clients, server)
        with pytest.raises(AggregationError, match="client 1 "):
            server.receive(
                malform(uploads[1], 1, clients[1].header), sender=1
            )
        for u in (2, 3, 4, 5):
            server.receive(uploads[u], sender=u)
        deliveries = server.advance()
        assert set(deliveries) == {2, 3, 4, 5}
        for _ in range(2):
            for u in sorted(deliveries):
                server.receive(
                    b"".join(clients[u].handle(deliveries[u])), sender=u
                )
            deliveries = server.advance()
        np.testing.assert_array_equal(
            server.modular_sum, np.mod(inputs[1:].sum(axis=0), MODULUS)
        )

    @pytest.mark.parametrize("malform", MALFORMED_UNMASK)
    def test_malformed_unmask_response_refused_before_any_state(
        self, malform
    ):
        """An unmask response is one lone frame whose shape the round
        fixed — a seed share per survivor, a key share per announced
        dropout at the group's digit count, every value in the field.
        Anything else is refused at receive(), naming the sender, with
        nothing stored; it used to reach recover_sum and take the round
        (a bare KeyError for a missing key share) with it."""
        inputs, clients, server = make_sessions(n=8, threshold=4)
        uploads = open_unmask(clients, server, silent={6, 7})
        assert sorted(uploads) == [1, 2, 3, 4, 5, 8]
        with pytest.raises(AggregationError, match="client 2 "):
            server.receive(malform(uploads[2]), sender=2)
        assert server.received() == frozenset()
        assert server.stats.phase_summary("unmask") is None
        # The refusal is not sticky, and the round still recovers the
        # survivors' exact sum from honest responses.
        for u, upload in uploads.items():
            server.receive(upload, sender=u)
        server.advance()
        survivors = [u - 1 for u in sorted(uploads)]
        np.testing.assert_array_equal(
            server.modular_sum,
            np.mod(inputs[survivors].sum(axis=0), MODULUS),
        )

    @pytest.mark.parametrize("splice", sorted(INEXPRESSIBLE_UNMASK, key=str))
    def test_inexpressible_unmask_fields_are_refused_by_the_decoder(
        self, splice
    ):
        """A point beside the seed shares, a point on a key share, a
        value wider than 64 bits: format 3 has no field for any of them,
        so a frame carrying one does not fit its own counts and the
        decoder refuses it with a typed error — before the server
        stores anything."""
        _, clients, server = make_sessions(n=8, threshold=4)
        uploads = open_unmask(clients, server, silent={6, 7})
        corrupted = splice(uploads[2])
        with pytest.raises(
            AggregationError, match=INEXPRESSIBLE_UNMASK[splice]
        ):
            decode_message(corrupted)
        with pytest.raises(AggregationError, match="trailing body bytes"):
            server.receive(corrupted, sender=2)
        assert server.received() == frozenset()
        assert server.stats.phase_summary("unmask") is None

    def test_unmask_quorum_recovers_without_the_malformed_responder(self):
        inputs, clients, server = make_sessions(n=8, threshold=4)
        uploads = open_unmask(clients, server, silent={7})
        with pytest.raises(AggregationError, match="client 1 "):
            server.receive(_missing_key_share(uploads[1]), sender=1)
        for u in (2, 3, 4, 5):
            server.receive(uploads[u], sender=u)
        server.advance()
        survivors = [u - 1 for u in sorted(uploads)]
        np.testing.assert_array_equal(
            server.modular_sum,
            np.mod(inputs[survivors].sum(axis=0), MODULUS),
        )

    @pytest.mark.parametrize("tail", ["short-envelope", "foreign-frame"])
    def test_client_refuses_non_uniform_mailbox(self, tail):
        _, clients, server = make_sessions(n=3, threshold=2)
        uploads = open_share_keys(clients, server)
        for u, upload in uploads.items():
            server.receive(upload, sender=u)
        mailbox = server.advance()[1]
        extra = (
            SealedDelivery(
                recipient=1,
                senders=np.array([3]),
                ciphertexts=np.zeros((1, 1), dtype=np.uint8),
            )
            if tail == "short-envelope"
            else Hello(sender=3)
        )
        with pytest.raises(AggregationError, match="must arrive alone"):
            clients[1].handle(mailbox + encode_message(extra, server.header))

    def test_sum_unavailable_before_recovery(self):
        _, _, server = make_sessions(n=3, threshold=2)
        with pytest.raises(AggregationError, match="not been recovered"):
            server.modular_sum


def _one_bit_frame(header, sender, dimension):
    """A well-formed masked input of ``dimension`` one-bit zeros,
    written by hand: encoding one would need the unpacked vector."""
    body = (
        sender.to_bytes(4, "little")
        + dimension.to_bytes(4, "little")
        + (1).to_bytes(1, "little")
        + bytes(-(-dimension // 8))
    )
    return _frame(MSG_MASKED_INPUT, body, header)


class TestMaskedInputIngest:
    """A masked input is the one upload that is wider in memory than on
    the wire (an int64 per coordinate, ``64 / bits`` times the packed
    payload), so the server holds the datagram to the length the round
    fixes *before* it decodes it, and the decoded frame to the round's
    width, dimension and alphabet before it stores it."""

    def test_a_datagram_of_another_length_is_refused_undecoded(self):
        """1 MiB of one-bit coordinates is 64 MiB once unpacked.  The
        refusal costs nothing like the frame, let alone its expansion,
        and leaves the sender free to deliver the honest upload."""
        _, clients, server = make_sessions(n=3, threshold=2)
        uploads = open_phase(clients, server, ROUND_MASKED_INPUT)
        assert _one_bit_frame(server.header, 2, 21) == encode_message(
            MaskedInput(2, np.zeros(21, dtype=np.int64), 1), server.header
        )
        frame = _one_bit_frame(server.header, 2, 8 * 2**20)
        before = observable_state(server, 2, [uploads[2], frame])
        tracemalloc.start()
        try:
            with pytest.raises(AggregationError, match="masked inputs are"):
                server.receive(frame, sender=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(frame) // 16
        assert observable_state(server, 2, [uploads[2], frame]) == before
        server.receive(uploads[2], sender=2)
        assert 2 in server.received()

    def test_a_frame_of_the_rounds_length_at_another_width_is_refused(self):
        """Half the coordinates at twice the width fill the same bytes:
        what the length cannot tell apart, the stated width does."""
        _, clients, server = make_sessions(n=3, threshold=2)
        uploads = open_phase(clients, server, ROUND_MASKED_INPUT)
        _, honest = decode_message(uploads[2])
        wide = encode_message(
            MaskedInput(
                2, honest.vector[: DIMENSION // 2], 2 * honest.bits
            ),
            server.header,
        )
        assert len(wide) == len(uploads[2])
        with pytest.raises(AggregationError, match="24-bit coordinates"):
            server.receive(wide, sender=2)
        assert 2 not in server.received()


def _doubled(upload, sender, header):
    return _two_frames(upload)


def _second_advertisement(upload, sender, header):
    # Hello + Advertise, then the Advertise frame once more.
    hello = encode_message(Hello(sender=sender), header)
    return upload + upload[len(hello) :]


#: phase -> a datagram whose *first* frame(s) the phase would accept and
#: whose last one it refuses.
REFUSED_AFTER_A_VALID_FRAME = {
    ROUND_ADVERTISE: _second_advertisement,
    ROUND_SHARE_KEYS: _mixed_message_types,
    ROUND_MASKED_INPUT: _doubled,
    ROUND_UNMASK: _doubled,
}


def observable_state(server, sender, datagrams):
    """Everything a refused datagram could have left behind that the
    session shows: the phase's uploads, the Hello refusals, the wire
    ledger and the at-most-once memo."""
    return (
        server.received(),
        dict(server.rejections),
        server.stats.phase_totals(),
        [server.already_ingested(sender, data) for data in datagrams],
    )


class TestAllOrNothingReceive:
    """``receive()`` dispatches frame by frame, so a datagram whose
    first frame is valid and whose second is refused used to leave the
    first one stored: the sender was evicted *and* counted."""

    @pytest.mark.parametrize("resumable", [False, True])
    @pytest.mark.parametrize(
        "phase", sorted(REFUSED_AFTER_A_VALID_FRAME), ids=PHASE_TAGS.get
    )
    def test_refused_datagram_leaves_nothing_behind(self, phase, resumable):
        inputs, clients, server = make_sessions(
            n=4, threshold=2, resumable=resumable
        )
        uploads = open_phase(clients, server, phase)
        bad = REFUSED_AFTER_A_VALID_FRAME[phase](
            uploads[2], 2, clients[2].header
        )
        before = observable_state(server, 2, [uploads[2], bad])
        with pytest.raises(AggregationError):
            server.receive(bad, sender=2)
        assert observable_state(server, 2, [uploads[2], bad]) == before
        assert 2 not in server.received()
        # Nothing half-kept refuses the honest datagram afterwards (a
        # Hello left behind would make it a duplicate), and the round
        # ends on everyone's exact sum.
        server.receive(uploads[2], sender=2)
        assert 2 in server.received()
        while server.phase != PHASE_DONE:
            uploads = close_phase(clients, server, uploads)
        np.testing.assert_array_equal(
            server.modular_sum, np.mod(inputs.sum(axis=0), MODULUS)
        )

    def test_refused_hello_outcome_is_taken_back_too(self):
        """A Hello the server *rejects* is state as well: when a later
        frame of the same datagram is refused, the rejection goes with
        it, and the datagram can be judged again from scratch."""
        _, clients, server = make_sessions(
            n=3, threshold=2, versions={2: PROTOCOL_V1 + 1}
        )
        hello, advertise = clients[2].start()
        with pytest.raises(AggregationError, match="duplicate Hello"):
            server.receive(hello + hello, sender=2)
        assert server.rejections == {}
        assert server.stats.phase_summary("advertise") is None
        server.receive(hello + advertise, sender=2)
        assert sorted(server.rejections) == [2]
        assert server.received() == frozenset()

    @pytest.mark.parametrize(
        "phase", [ROUND_MASKED_INPUT, ROUND_UNMASK], ids=PHASE_TAGS.get
    )
    def test_an_earlier_upload_of_the_sender_is_not_touched(self, phase):
        """What the sender delivered in an *earlier* datagram is not the
        refused datagram's to take back: it stays until the transport
        retracts it (``RoundDriver.evict`` does)."""
        inputs, clients, server = make_sessions(n=4, threshold=2)
        uploads = open_phase(clients, server, phase)
        server.receive(uploads[2], sender=2)
        before = observable_state(server, 2, [uploads[2]])
        with pytest.raises(AggregationError, match="client 2"):
            server.receive(uploads[2] + uploads[2], sender=2)
        assert observable_state(server, 2, [uploads[2]]) == before
        assert server.received() == frozenset({2})
        while server.phase != PHASE_DONE:
            uploads = close_phase(clients, server, uploads)
        assert server.included == frozenset(clients)
        np.testing.assert_array_equal(
            server.modular_sum, np.mod(inputs.sum(axis=0), MODULUS)
        )


def _request(clients, survivors, dropouts):
    return encode_message(
        UnmaskRequest(
            survivors=frozenset(survivors), dropouts=frozenset(dropouts)
        ),
        clients[1].header,
    )


class TestOneUnmaskAnswer:
    """Never both shares of one peer — across requests, not only inside
    one.  ``_check_unmask_request`` used to keep no memory, so a second
    request could move a peer between the survivor and dropout sets and
    collect the other share."""

    @pytest.mark.parametrize(
        "silent, survivors, dropouts",
        [
            # The honest request named 2 a survivor (seed share out):
            # now name it a dropout to get its key share.
            (frozenset(), {1, 3, 4, 5}, {2}),
            # The honest request named 5 a dropout (key share out): now
            # name it a survivor to get its seed share.
            ({5}, {1, 2, 3, 4, 5}, set()),
            # The very same request again: one answer is one answer.
            (frozenset(), {1, 2, 3, 4, 5}, set()),
        ],
        ids=["survivor-to-dropout", "dropout-to-survivor", "same-again"],
    )
    def test_second_request_is_refused(self, silent, survivors, dropouts):
        _, clients, server = make_sessions(n=5, threshold=3)
        requests = open_unmask_requests(clients, server, silent=silent)
        (answer,) = clients[1].handle(requests[1])
        _, response = decode_message(answer)
        held = clients[1].crypto._received
        assert response.seed_shares.tolist() == [
            held[v][0] for v in sorted(set(clients) - silent)
        ]
        assert response.key_shares.tolist() == [
            held[v][1:] for v in sorted(silent)
        ]
        with pytest.raises(AggregationError, match="already answered"):
            clients[1].handle(_request(clients, survivors, dropouts))
        # The answer it did give still completes the round.
        server.receive(answer, sender=1)
        for u in (2, 3):
            server.receive(b"".join(clients[u].handle(requests[u])), sender=u)
        server.advance()
        assert server.included == frozenset(clients) - silent

    def test_a_refused_request_does_not_use_the_answer_up(self):
        _, clients, server = make_sessions(n=5, threshold=3)
        requests = open_unmask_requests(clients, server)
        with pytest.raises(AggregationError, match="both survivor"):
            clients[1].handle(_request(clients, {1, 2, 3, 4, 5}, {2}))
        with pytest.raises(AggregationError, match="no shares held"):
            clients[1].handle(_request(clients, {1, 2, 3, 4, 5, 9}, set()))
        (answer,) = clients[1].handle(requests[1])
        server.receive(answer, sender=1)
        with pytest.raises(AggregationError, match="already answered"):
            clients[1].handle(requests[1])

    def test_tampering_server_gets_one_answer_per_client(self):
        """The ``tamper_unmask_request`` seam is the attacker of ROADMAP
        4(b): whatever it rewrites the announcement to, a client that
        answered it answers nothing else."""
        _, clients, _ = make_sessions(n=5, threshold=3)
        server = ServerSession(
            MODULUS, DIMENSION, 3, group=TOY_GROUP,
            tamper_unmask_request=lambda request: UnmaskRequest(
                survivors=request.survivors - {2},
                dropouts=request.dropouts | {2},
            ),
        )
        requests = open_unmask_requests(clients, server)
        assert server.tampered
        (answer,) = clients[1].handle(requests[1])
        _, response = decode_message(answer)
        # The tampered request got 2's key share and not its seed share …
        held = clients[1].crypto._received
        assert response.key_shares.tolist() == [held[2][1:]]
        assert response.seed_shares.tolist() == [
            held[v][0] for v in (1, 3, 4, 5)
        ]
        # … and the honest one, sent afterwards, gets nothing.
        with pytest.raises(AggregationError, match="already answered"):
            clients[1].handle(_request(clients, {1, 2, 3, 4, 5}, set()))


def _mailbox_rows(delivery, rows):
    """A share delivery re-encoded with ``rows`` of its mailbox only."""
    header, mailbox = decode_message(delivery)
    return encode_message(
        SealedDelivery(
            mailbox.recipient, mailbox.senders[rows], mailbox.ciphertexts[rows]
        ),
        header,
    )


class TestOneMaskedInput:
    """One share-keys upload and one masked input a round, the latter
    over a ``U1`` of at least ``t`` — whatever the server sends.  A
    client used to answer every roster and every delivery that named
    it: a one-row delivery got ``x_u + PRG(b_u)`` (and the honest peers
    then hand the server ``b_u``), two deliveries got two masked inputs
    that differ by bare pairwise masks."""

    @staticmethod
    def open_deliveries():
        inputs, clients, server = make_sessions(n=5, threshold=3)
        uploads = open_share_keys(clients, server)
        for u in sorted(uploads):
            server.receive(uploads[u], sender=u)
        return inputs, clients, server, server.advance()

    @staticmethod
    def open_rosters():
        inputs, clients, server = make_sessions(n=5, threshold=3)
        for u in sorted(clients):
            server.receive(b"".join(clients[u].start()), sender=u)
        return inputs, clients, server, server.advance()

    @staticmethod
    def finish(inputs, clients, server, uploads):
        for _ in range(PHASE_DONE - server.phase):
            uploads = close_phase(clients, server, uploads)
        np.testing.assert_array_equal(
            server.modular_sum, np.mod(inputs.sum(axis=0), MODULUS)
        )

    @pytest.mark.parametrize(
        "rows, refusal",
        [
            ([0], "threshold is 3"),
            ([0, 4], "threshold is 3"),
            ([1, 2, 3, 4], "excluded from the participant set"),
            # A repeated sender has no encoding: the sender column is
            # gaps, so the encoder refuses it (and no bytes decode to
            # one, below).
            ([0, 1, 2, 2, 4], "senders must be strictly increasing"),
        ],
        ids=["alone", "below-threshold", "without-itself", "duplicate-row"],
    )
    def test_a_delivery_it_cannot_mask_over_is_refused(self, rows, refusal):
        inputs, clients, server, deliveries = self.open_deliveries()
        with pytest.raises(AggregationError, match=refusal):
            clients[1].handle(_mailbox_rows(deliveries[1], rows))
        # Nothing was stored and the answer was not used up: the honest
        # delivery is answered and the round completes.
        assert clients[1].crypto._received == {}
        self.finish(
            inputs, clients, server,
            {u: b"".join(clients[u].handle(deliveries[u])) for u in clients},
        )

    @given(gaps=st.binary(min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_no_bytes_decode_to_a_repeated_sender(self, gaps):
        """Whatever stands in a delivery's sender column, the client
        reads strictly increasing senders or refuses the frame."""
        count = len(gaps) // 2 + 1
        body = (
            (1).to_bytes(4, "little")
            + count.to_bytes(4, "little")
            + (16).to_bytes(4, "little")
            + gaps
            + bytes(16 * count)
        )
        try:
            senders = decode_message(
                _frame(
                    MSG_SEALED_DELIVERY,
                    body,
                    intern_header(PROTOCOL_V1, DEFAULT_MASK_PRG.name),
                )
            )[1].senders.tolist()
        except AggregationError:
            return
        assert len(senders) == count
        assert senders == sorted(set(senders))

    def test_second_delivery_is_refused(self):
        inputs, clients, server, deliveries = self.open_deliveries()
        uploads = {
            u: b"".join(clients[u].handle(deliveries[u])) for u in clients
        }
        # Without sender 5 the second masked input would differ from the
        # first by exactly the pairwise mask of (1, 5).
        for rows in ([0, 1, 2, 3], slice(None)):
            with pytest.raises(AggregationError, match="already uploaded"):
                clients[1].handle(_mailbox_rows(deliveries[1], rows))
        # The answer it did give still completes the round, its shares
        # of all five peers intact.
        assert sorted(clients[1].crypto._received) == [1, 2, 3, 4, 5]
        self.finish(inputs, clients, server, uploads)

    def test_second_roster_is_refused(self):
        inputs, clients, server, rosters = self.open_rosters()
        uploads = {u: b"".join(clients[u].handle(rosters[u])) for u in clients}
        seed = clients[1].crypto._self_seed
        with pytest.raises(AggregationError, match="already shared"):
            clients[1].handle(rosters[1])
        assert clients[1].crypto._self_seed == seed
        self.finish(inputs, clients, server, uploads)

    def test_a_refused_roster_does_not_use_the_upload_up(self):
        inputs, clients, server, rosters = self.open_rosters()
        header, roster = decode_message(rosters[1])
        short = Roster(
            roster.indices[:2],
            roster.channel_keys[:2],
            roster.mask_keys[:2],
            roster.width,
        )
        with pytest.raises(AggregationError, match="cannot meet threshold"):
            clients[1].handle(encode_message(short, header))
        self.finish(
            inputs, clients, server,
            {u: b"".join(clients[u].handle(rosters[u])) for u in clients},
        )


class TestWireAccounting:
    def test_every_phase_and_client_is_tallied(self):
        _, clients, server = make_sessions(n=4, threshold=3)
        pump(clients, server)
        stats = server.stats
        phases = stats.phase_totals()
        assert set(phases) == set(PHASE_TAGS.values())
        # Uploads: 2 hello+advertise frames, 1 share-keys matrix, 1
        # masked input and 1 unmask response per client.
        n = len(clients)
        assert phases["advertise"]["up_messages"] == 2 * n
        assert phases["share-keys"]["up_messages"] == n
        assert phases["share-keys"]["down_messages"] == n
        assert phases["masked-input"]["up_messages"] == n
        assert phases["unmask"]["up_messages"] == n
        assert phases["unmask"]["down_messages"] == 0
        per_client = stats.client_totals()
        assert set(per_client) == set(clients)
        assert all(entry["up_bytes"] > 0 for entry in per_client.values())

    def test_bytes_match_what_crossed_the_pump(self):
        _, clients, server = make_sessions(n=3, threshold=2)
        sent = 0
        for u in sorted(clients):
            datagram = b"".join(clients[u].start())
            sent += len(datagram)
            server.receive(datagram, sender=u)
        uploads = server.stats.phase_totals()["advertise"]
        assert uploads["up_bytes"] == sent
