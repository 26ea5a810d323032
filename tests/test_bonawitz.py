"""Tests for the full Bonawitz secure-aggregation protocol.

Covers the happy path, dropout recovery at every round, threshold
failures, malformed-message rejection, the never-reveal-both security
rule, and marginal uniformity of transmitted messages.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AggregationError, ConfigurationError
from repro.secagg.bonawitz import (
    ROUND_ADVERTISE,
    ROUND_MASKED_INPUT,
    ROUND_SHARE_KEYS,
    ROUND_UNMASK,
    BonawitzClient,
    BonawitzServer,
    run_bonawitz,
    sealed_share_length,
)
from repro.secagg.keys import TOY_GROUP, DhGroup
from repro.secagg.shamir import LimbShares, Share
from repro.secagg.statemachine import ClientSession, ServerSession
from repro.secagg.wire import UnmaskRequest
from tests.secagg_reference import (
    decode_payload,
    encode_payload,
    open_sealed,
    seal,
)

MODULUS = 2**10
DIMENSION = 32


@pytest.fixture
def rng():
    return np.random.default_rng(2022)


def make_inputs(rng, n=6, d=DIMENSION):
    return rng.integers(0, MODULUS, size=(n, d), dtype=np.int64)


def share_round(server, clients):
    """Rounds 0-1 by hand over the crypto state machines: advertise,
    seal for the roster, and hand every client the envelope column
    addressed to it (what the wire layer's router does with frames)."""
    roster = server.collect_advertisements(
        [client.advertise_keys() for client in clients]
    )
    sealed = {c.index: c.share_keys_matrix(roster)[1] for c in clients}
    senders = sorted(server.register_share_keys(sealed))
    for client in clients:
        column = sorted(roster).index(client.index)
        client.receive_share_matrix(
            senders, np.stack([sealed[s][column] for s in senders])
        )


class TestHappyPath:
    def test_sum_matches_plain_modular_sum(self, rng):
        inputs = make_inputs(rng)
        outcome = run_bonawitz(inputs, MODULUS, threshold=4, rng=rng)
        expected = np.mod(inputs.sum(axis=0), MODULUS)
        np.testing.assert_array_equal(outcome.modular_sum, expected)

    def test_all_clients_included_without_dropouts(self, rng):
        inputs = make_inputs(rng, n=5)
        outcome = run_bonawitz(inputs, MODULUS, threshold=3, rng=rng)
        assert outcome.included == frozenset(range(1, 6))
        assert outcome.dropped == frozenset()

    def test_two_clients_minimum(self, rng):
        inputs = make_inputs(rng, n=2)
        outcome = run_bonawitz(inputs, MODULUS, threshold=2, rng=rng)
        np.testing.assert_array_equal(
            outcome.modular_sum, np.mod(inputs.sum(axis=0), MODULUS)
        )

    def test_deterministic_given_seed(self):
        inputs = make_inputs(np.random.default_rng(1), n=4)
        a = run_bonawitz(
            inputs, MODULUS, 3, np.random.default_rng(5)
        ).modular_sum
        b = run_bonawitz(
            inputs, MODULUS, 3, np.random.default_rng(5)
        ).modular_sum
        np.testing.assert_array_equal(a, b)

    def test_non_power_of_two_modulus(self, rng):
        inputs = rng.integers(0, 1000, size=(4, 8), dtype=np.int64)
        outcome = run_bonawitz(inputs, 1000, threshold=3, rng=rng)
        np.testing.assert_array_equal(
            outcome.modular_sum, np.mod(inputs.sum(axis=0), 1000)
        )

    @given(
        n=st.integers(min_value=2, max_value=7),
        d=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_correctness_property(self, n, d, seed):
        rng = np.random.default_rng(seed)
        inputs = rng.integers(0, 64, size=(n, d), dtype=np.int64)
        outcome = run_bonawitz(inputs, 64, threshold=2, rng=rng)
        np.testing.assert_array_equal(
            outcome.modular_sum, np.mod(inputs.sum(axis=0), 64)
        )


class TestDropoutRecovery:
    def test_dropout_before_masked_input_excluded_from_sum(self, rng):
        inputs = make_inputs(rng, n=6)
        outcome = run_bonawitz(
            inputs,
            MODULUS,
            threshold=3,
            rng=rng,
            dropouts={3: ROUND_MASKED_INPUT},
        )
        expected = np.mod(np.delete(inputs, 2, axis=0).sum(axis=0), MODULUS)
        np.testing.assert_array_equal(outcome.modular_sum, expected)
        assert 3 in outcome.dropped

    def test_dropout_after_masked_input_still_included(self, rng):
        """A client that sent y_u but misses unmasking is still summed —
        the survivors reconstruct its self-mask."""
        inputs = make_inputs(rng, n=6)
        outcome = run_bonawitz(
            inputs, MODULUS, threshold=3, rng=rng, dropouts={4: ROUND_UNMASK}
        )
        expected = np.mod(inputs.sum(axis=0), MODULUS)
        np.testing.assert_array_equal(outcome.modular_sum, expected)
        assert 4 in outcome.included

    def test_dropout_at_advertise_is_invisible(self, rng):
        inputs = make_inputs(rng, n=5)
        outcome = run_bonawitz(
            inputs, MODULUS, threshold=3, rng=rng, dropouts={1: ROUND_ADVERTISE}
        )
        expected = np.mod(inputs[1:].sum(axis=0), MODULUS)
        np.testing.assert_array_equal(outcome.modular_sum, expected)

    def test_dropout_at_share_keys_recovered(self, rng):
        inputs = make_inputs(rng, n=5)
        outcome = run_bonawitz(
            inputs,
            MODULUS,
            threshold=3,
            rng=rng,
            dropouts={2: ROUND_SHARE_KEYS},
        )
        expected = np.mod(np.delete(inputs, 1, axis=0).sum(axis=0), MODULUS)
        np.testing.assert_array_equal(outcome.modular_sum, expected)

    def test_multiple_dropouts_at_different_rounds(self, rng):
        inputs = make_inputs(rng, n=8)
        outcome = run_bonawitz(
            inputs,
            MODULUS,
            threshold=4,
            rng=rng,
            dropouts={
                1: ROUND_SHARE_KEYS,
                5: ROUND_MASKED_INPUT,
                7: ROUND_UNMASK,
            },
        )
        # Clients 1 and 5 are excluded; 7 sent masked input so is included.
        expected = np.mod(
            np.delete(inputs, [0, 4], axis=0).sum(axis=0), MODULUS
        )
        np.testing.assert_array_equal(outcome.modular_sum, expected)
        assert outcome.dropped == frozenset({1, 5})

    @pytest.mark.parametrize("dropouts", [0, 1, 10])
    def test_one_lagrange_weight_vector_per_unmask_phase(
        self, rng, monkeypatch, dropouts
    ):
        """A count guard, not a timing guard: however many clients
        dropped, recover_sum reconstructs every survivor seed and every
        dropout key from one weight vector (it used to compute one for
        the seeds plus one per dropout, all over the same points)."""
        from repro.secagg import shamir

        calls = []
        per_recover = []
        weights = shamir.lagrange_weights_at_zero
        recover = BonawitzServer.recover_sum

        def counting_weights(xs, prime):
            calls.append(len(xs))
            return weights(xs, prime)

        def counted_recover(self, responses):
            before = len(calls)
            total = recover(self, responses)
            per_recover.append(len(calls) - before)
            return total

        monkeypatch.setattr(
            shamir, "lagrange_weights_at_zero", counting_weights
        )
        monkeypatch.setattr(BonawitzServer, "recover_sum", counted_recover)
        inputs = make_inputs(rng, n=24, d=8)
        silent = {u: ROUND_MASKED_INPUT for u in range(2, 2 + dropouts)}
        outcome = run_bonawitz(
            inputs, MODULUS, threshold=12, rng=rng, dropouts=silent
        )
        kept = [u - 1 for u in sorted(outcome.included)]
        assert len(kept) == 24 - dropouts
        np.testing.assert_array_equal(
            outcome.modular_sum, inputs[kept].sum(axis=0) % MODULUS
        )
        assert per_recover == [1]
        assert calls == [12]

    def test_too_many_dropouts_fails_loudly(self, rng):
        inputs = make_inputs(rng, n=4)
        with pytest.raises(AggregationError, match="threshold"):
            run_bonawitz(
                inputs,
                MODULUS,
                threshold=3,
                rng=rng,
                dropouts={1: ROUND_MASKED_INPUT, 2: ROUND_MASKED_INPUT},
            )

    def test_unmask_round_below_threshold_fails(self, rng):
        inputs = make_inputs(rng, n=4)
        with pytest.raises(AggregationError, match="unmask"):
            run_bonawitz(
                inputs,
                MODULUS,
                threshold=3,
                rng=rng,
                dropouts={
                    1: ROUND_UNMASK,
                    2: ROUND_UNMASK,
                },
            )


class TestValidation:
    def test_threshold_bounds(self, rng):
        inputs = make_inputs(rng, n=4)
        with pytest.raises(ConfigurationError, match="threshold"):
            run_bonawitz(inputs, MODULUS, threshold=1, rng=rng)
        with pytest.raises(ConfigurationError, match="threshold"):
            run_bonawitz(inputs, MODULUS, threshold=5, rng=rng)

    def test_inputs_must_be_in_range(self, rng):
        inputs = np.full((3, 4), MODULUS, dtype=np.int64)
        with pytest.raises(AggregationError, match="lie in"):
            run_bonawitz(inputs, MODULUS, threshold=2, rng=rng)

    def test_bad_dropout_index_rejected(self, rng):
        inputs = make_inputs(rng, n=3)
        with pytest.raises(ConfigurationError, match="dropout index"):
            run_bonawitz(
                inputs, MODULUS, 2, rng, dropouts={9: ROUND_UNMASK}
            )

    def test_bad_dropout_round_rejected(self, rng):
        inputs = make_inputs(rng, n=3)
        with pytest.raises(ConfigurationError, match="dropout round"):
            run_bonawitz(inputs, MODULUS, 2, rng, dropouts={1: 7})

    def test_duplicate_advertisement_rejected(self):
        server = BonawitzServer(MODULUS, DIMENSION, threshold=2)
        client = BonawitzClient(
            1,
            np.zeros(DIMENSION, dtype=np.int64),
            MODULUS,
            2,
            np.random.default_rng(0),
            TOY_GROUP,
        )
        keys = client.advertise_keys()
        with pytest.raises(AggregationError, match="duplicate"):
            server.collect_advertisements([keys, keys])

    def test_spoofed_sender_rejected(self, rng):
        # The crypto server never sees envelopes (the wire layer routes
        # them as opaque frames), so origin binding is the session's.
        server = ServerSession(MODULUS, DIMENSION, 2, group=TOY_GROUP)
        sessions = {
            i: ClientSession(
                i,
                np.zeros(DIMENSION, dtype=np.int64),
                MODULUS,
                2,
                np.random.default_rng(i),
                TOY_GROUP,
            )
            for i in (1, 2)
        }
        for i, session in sessions.items():
            server.receive(b"".join(session.start()), sender=i)
        roster = server.advance()
        (forged,) = sessions[2].handle(roster[2])
        with pytest.raises(AggregationError, match="claims sender"):
            server.receive(forged, sender=1)

    def test_wrong_dimension_masked_input_rejected(self, rng):
        inputs = make_inputs(rng, n=3)
        server = BonawitzServer(MODULUS, DIMENSION, threshold=2)
        clients = {
            i
            + 1: BonawitzClient(
                i + 1,
                inputs[i],
                MODULUS,
                2,
                np.random.default_rng(i),
                TOY_GROUP,
            )
            for i in range(3)
        }
        share_round(server, list(clients.values()))
        masked = {
            u: clients[u].masked_input(server.share_participants)
            for u in clients
        }
        with pytest.raises(AggregationError, match="client 1 sent dimension"):
            server.check_masked_input(1, masked[1][:-1])
        with pytest.raises(AggregationError, match="client 2's masked input"):
            server.check_masked_input(2, masked[2] + MODULUS)
        # Held to the round at ingest, the phase closes on what is left.
        for sender, vector in masked.items():
            server.check_masked_input(sender, vector)
        assert server.collect_masked_inputs(masked).survivors == {1, 2, 3}

    def test_masked_input_from_outside_u1_rejected(self, rng):
        server = BonawitzServer(MODULUS, DIMENSION, threshold=2)
        clients = [
            BonawitzClient(
                i,
                np.zeros(DIMENSION, dtype=np.int64),
                MODULUS,
                2,
                np.random.default_rng(i),
                TOY_GROUP,
            )
            for i in (1, 2)
        ]
        share_round(server, clients)
        masked = {
            c.index: c.masked_input(server.share_participants)
            for c in clients
        }
        masked[99] = np.zeros(DIMENSION, dtype=np.int64)
        with pytest.raises(AggregationError, match="outside U1"):
            server.collect_masked_inputs(masked)

    def test_client_round_order_enforced(self, rng):
        client = BonawitzClient(
            1,
            np.zeros(DIMENSION, dtype=np.int64),
            MODULUS,
            2,
            rng,
            TOY_GROUP,
        )
        with pytest.raises(AggregationError, match="before advertise"):
            client.share_keys_matrix({})
        with pytest.raises(AggregationError, match="before share_keys"):
            client.masked_input(frozenset({1}))


class TestSecurityInvariants:
    def test_client_refuses_overlapping_unmask_request(self, rng):
        """The same peer named as survivor and dropout would reveal both
        b_v and s_v^SK — the client must refuse."""
        inputs = make_inputs(rng, n=3)
        server = BonawitzServer(MODULUS, DIMENSION, threshold=2)
        clients = {
            i
            + 1: BonawitzClient(
                i + 1,
                inputs[i],
                MODULUS,
                2,
                np.random.default_rng(i),
                TOY_GROUP,
            )
            for i in range(3)
        }
        share_round(server, list(clients.values()))
        malicious = UnmaskRequest(
            survivors=frozenset({1, 2}), dropouts=frozenset({2, 3})
        )
        with pytest.raises(AggregationError, match="both survivor"):
            clients[1].unmask_columns(malicious)

    def test_unknown_peer_in_unmask_request_rejected(self, rng):
        inputs = make_inputs(rng, n=2)
        server = BonawitzServer(MODULUS, DIMENSION, threshold=2)
        clients = {
            i
            + 1: BonawitzClient(
                i + 1,
                inputs[i],
                MODULUS,
                2,
                np.random.default_rng(i),
                TOY_GROUP,
            )
            for i in range(2)
        }
        share_round(server, list(clients.values()))
        with pytest.raises(AggregationError, match="no shares held"):
            clients[1].unmask_columns(
                UnmaskRequest(
                    survivors=frozenset({42}), dropouts=frozenset()
                )
            )

    def test_masked_messages_are_marginally_uniform(self):
        """Each y_u over many protocol runs must look uniform over Z_m —
        the confidentiality property the DP analysis relies on."""
        modulus = 16
        observed = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            inputs = np.zeros((3, 32), dtype=np.int64)  # worst case: x = 0
            clients = {
                i
                + 1: BonawitzClient(
                    i + 1,
                    inputs[i],
                    modulus,
                    2,
                    np.random.default_rng(1000 + 10 * seed + i),
                    TOY_GROUP,
                )
                for i in range(3)
            }
            server = BonawitzServer(modulus, 32, threshold=2)
            share_round(server, list(clients.values()))
            observed.append(
                clients[1].masked_input(server.share_participants)
            )
        values = np.concatenate(observed)
        counts = np.bincount(values, minlength=modulus)
        expected = len(values) / modulus
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 45  # 15 dof, 99.99% quantile ~ 44.3

    def test_envelope_ciphertext_differs_from_plaintext(self, rng):
        payload = encode_payload(
            Share(x=1, y=123456), LimbShares(x=1, ys=(9, 8, 7))
        )
        sealed = seal(b"\x01" * 32, payload)
        assert sealed != payload
        assert open_sealed(b"\x01" * 32, sealed) == payload

    def test_envelope_wrong_key_garbles(self):
        payload = encode_payload(
            Share(x=2, y=42), LimbShares(x=2, ys=(1,))
        )
        sealed = seal(b"\x01" * 32, payload)
        garbled = open_sealed(b"\x02" * 32, sealed)
        assert garbled != payload


class TestPayloadCodec:
    def test_roundtrip(self):
        seed_share = Share(x=7, y=(1 << 60) - 1)
        key_share = LimbShares(x=7, ys=((1 << 60) - 1, 0, 12345))
        encoded = encode_payload(seed_share, key_share)
        assert len(encoded) == 8 * (1 + 3)
        decoded_seed, decoded_key = decode_payload(encoded, 7)
        assert decoded_seed == seed_share
        assert decoded_key == key_share

    def test_truncated_payload_rejected(self):
        encoded = encode_payload(Share(x=1, y=2), LimbShares(x=1, ys=(3,)))
        with pytest.raises(AggregationError, match="malformed"):
            decode_payload(encoded[:-1], 1)


class TestBlame:
    """Who can be blamed for what an envelope says — and what an
    envelope can no longer say."""

    def test_envelope_is_share_values_and_nothing_else(self):
        """A seed share and one share per limb of the group's mask key,
        8 bytes each: no Shamir point, no limb count (30 -> 24 bytes on
        the toy group)."""
        assert sealed_share_length(TOY_GROUP) == 24
        assert sealed_share_length(DhGroup()) == 8 * (1 + 18)

    def test_relayed_shares_sit_at_the_relayers_own_point(self, rng):
        """Client 1 relays at unmask what client 2 sealed for it.  Under
        wire format 1 an envelope named its own Shamir point and limb
        count, so a peer sealing *a neighbour's* x (or a short limb
        tuple) got the honest relayer refused — and, since PR 17,
        evicted — at unmask: the scenario was constructible at the
        parent of this change.  Now it is unrepresentable: whatever
        bytes a peer seals, the recipient reads them as values at its
        own roster position and at the group's limb count, so its
        response passes ``check_unmask_response``'s point and
        limb-count checks by construction.  (What a peer can still do
        is seal an out-of-field *value*; that half of ROADMAP 3a needs
        the authentication tag.)"""
        inputs = make_inputs(rng, n=4)
        clients = [
            BonawitzClient(
                u, inputs[u - 1], MODULUS, 2, np.random.default_rng(u),
                TOY_GROUP,
            )
            for u in (1, 2, 3, 4)
        ]
        server = BonawitzServer(MODULUS, DIMENSION, threshold=2, group=TOY_GROUP)
        roster = server.collect_advertisements(
            [client.advertise_keys() for client in clients]
        )
        sealed = {c.index: c.share_keys_matrix(roster)[1] for c in clients}
        # Client 2 seals for client 1 what format 1 would have parsed as
        # "point 3, one limb": bytes chosen freely, in the field.
        forged = encode_payload(Share(3, 3), LimbShares(3, (1, 5)))
        sealed[2][0] = np.frombuffer(
            seal(clients[1]._channel_key(1), forged), dtype=np.uint8
        )
        senders = sorted(server.register_share_keys(sealed))
        for position, client in enumerate(clients):
            client.receive_share_matrix(
                senders, np.stack([sealed[s][position] for s in senders])
            )
        masked = {
            c.index: c.masked_input(server.share_participants)
            for c in clients
            if c.index != 4  # drops: its key shares get revealed too
        }
        request = server.collect_masked_inputs(masked)
        response = clients[0].unmask_columns(request)
        assert response.xs.tolist() == [1, 1, 1]
        assert response.ys[1] == 3  # client 2's forged seed value, relayed
        assert {share.x for share in response.key_shares.values()} == {1}
        assert all(len(share.ys) == 2 for share in response.key_shares.values())
        server.check_unmask_response(response)  # the relayer is not blamed
