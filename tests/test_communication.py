"""Tests for the communication-cost model: it equals the wire."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.secagg.bonawitz import (
    ROUND_MASKED_INPUT,
    run_bonawitz,
    sealed_share_length,
)
from repro.secagg.field import DEFAULT_FIELD
from repro.secagg.keys import TOY_GROUP, DhGroup
from repro.secagg.wire import (
    PROTOCOL_V1,
    MaskedInput,
    NegotiatedHeader,
    encode_message,
    modulus_bits,
)
from repro.core.communication import (
    bonawitz_round_cost,
    central_upload_bytes,
    client_upload_bytes,
    compression_ratio,
    payload_bits,
    training_communication,
)
from repro.errors import ConfigurationError
from repro.simulation import AsyncSecAggRound, ClientPlan, SimulatedClock


class TestPayload:
    def test_one_byte_per_dimension_at_2_8(self):
        """The paper's headline: m = 2^8 is one byte per parameter."""
        assert client_upload_bytes(1000, 2**8) == 1000

    def test_bits_scale_with_log_modulus(self):
        assert payload_bits(100, 2**10) == 1000
        assert payload_bits(100, 2**16) == 1600

    def test_non_power_of_two_rounds_up(self):
        assert payload_bits(10, 1000) == 100  # ceil(log2 1000) = 10

    def test_invalid_dimension_rejected(self):
        with pytest.raises(ConfigurationError, match="dimension"):
            payload_bits(0, 256)

    def test_invalid_modulus_rejected(self):
        with pytest.raises(ConfigurationError, match="modulus"):
            payload_bits(10, 1)

    def test_central_baseline_is_four_bytes_per_dim(self):
        assert central_upload_bytes(63_610) == 4 * 63_610

    def test_compression_ratio_at_one_byte(self):
        assert compression_ratio(4096, 2**8) == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "modulus", [2**6, 2**8, 2**10, 2**14, 2**16, 2**18, 1000]
    )
    @pytest.mark.parametrize("dimension", [1, 13, 1024])
    def test_upload_bytes_are_the_masked_input_frames_payload(
        self, modulus, dimension
    ):
        """Every figure's "bitwidth" is what a socket carries: the model
        is the frame minus its fixed prefix (header, sender, dimension,
        width), whatever the values are."""
        header = NegotiatedHeader(PROTOCOL_V1, "shake256")
        prefix = len(
            encode_message(
                MaskedInput(1, np.zeros(0, dtype=np.int64), 1), header
            )
        )
        for fill in (0, modulus - 1):
            frame = encode_message(
                MaskedInput(
                    1, np.full(dimension, fill), modulus_bits(modulus)
                ),
                header,
            )
            assert len(frame) - prefix == client_upload_bytes(
                dimension, modulus
            )

    @given(
        dimension=st.integers(min_value=1, max_value=10_000),
        bits=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=40)
    def test_upload_bytes_monotone_in_bits(self, dimension, bits):
        smaller = client_upload_bytes(dimension, 2**bits)
        larger = client_upload_bytes(dimension, 2 ** (bits + 1))
        assert larger >= smaller


class TestBonawitzCost:
    def test_masked_input_dominates_at_large_d(self):
        """For the paper's d ~ 64k model, protocol overhead is noise."""
        cost = bonawitz_round_cost(240, 65_536, 2**8)
        assert cost.overhead_fraction < 0.6
        # One byte per parameter after a 28-byte frame prefix.
        assert cost.masked_input == 65_536 + 28

    def test_overhead_scales_with_clients(self):
        """One envelope up and one 8-byte seed share value back per
        further client; the masked input does not care."""
        small = bonawitz_round_cost(10, 1024, 2**8)
        large = bonawitz_round_cost(1000, 1024, 2**8)
        envelope = sealed_share_length(DhGroup(), DEFAULT_FIELD)
        assert envelope == 8 * (1 + 17)  # a seed share, 17 key digits
        assert large.share_keys - small.share_keys == 990 * envelope
        assert large.unmask - small.unmask == 990 * 8
        assert large.masked_input == small.masked_input
        assert large.advertise == small.advertise

    @pytest.mark.parametrize(
        "group", [TOY_GROUP, DhGroup()], ids=["toy-dh", "oakley-2"]
    )
    @pytest.mark.parametrize("modulus", [2**8, 1000])
    def test_model_equals_a_live_rounds_ledger(self, group, modulus):
        """Phase by phase, the model is the upload a dropout-free
        ``run_bonawitz`` round's ``WireStats`` records for every client:
        every width on the wire is the round's, so no client's frames
        are a byte shorter than another's."""
        clients, dimension = 16, 96
        rng = np.random.default_rng(11)
        outcome = run_bonawitz(
            rng.integers(0, modulus, size=(clients, dimension)),
            modulus,
            threshold=9,
            rng=rng,
            group=group,
        )
        cost = bonawitz_round_cost(clients, dimension, modulus, group)
        uploads = {
            phase: [tally.bytes for tally in cells.values()]
            for phase, cells in outcome.wire.uploads.items()
        }
        assert {phase: set(sizes) for phase, sizes in uploads.items()} == {
            "advertise": {cost.advertise},
            "share-keys": {cost.share_keys},
            "masked-input": {cost.masked_input},
            "unmask": {cost.unmask},
        }
        assert all(len(sizes) == clients for sizes in uploads.values())

    def test_full_cohort_round_moves_7820_bytes_a_client(self):
        """``run_bonawitz`` at n = 128, d = 16, m = 2^16, t = 77 on the
        toy group, both directions — ``secagg_quadratic``'s round.  A
        frame is a 19-byte header (11 + ``shake256``) and its body; a
        toy-group key is 8 bytes, and one base-p digit, so an envelope
        is a seed share and one key share, 16 bytes.  Every id list is
        the ids 1..128, the gaps 1, 0, 0, ...: a byte an id.

        ============= ==== ===================================== =====
        phase         dir  frame(s)                              bytes
        ============= ==== ===================================== =====
        advertise     up   Hello 19 + 4; Advertise 19 + 5 + 2 x 8   63
        advertise     down roster 19 + 5 + 128 x (1 + 2 x 8)      2200
        share-keys    up   19 + 12 + 128 x 16                    2079
        share-keys    down 19 + 12 + 128 x (1 + 16)              2207
        masked-input  up   19 + 9 + 16 x 2                         60
        masked-input  down request 19 + (4 + 128 x 1) + 4         155
        unmask        up   19 + 13 + 128 x 8                     1056
        ============= ==== ===================================== =====

        7 820 bytes a client.  Format 4 wrote each id as a u32, 3 bytes
        more an id: roster 2 584, delivery 2 591 and request 539, 8 972
        in all; format 3's two-limb envelopes (24 bytes) then made
        share-keys 3 103 up and 3 615 down, 11 020 in all."""
        clients, dimension, modulus = 128, 16, 2**16
        rng = np.random.default_rng(5)
        outcome = run_bonawitz(
            rng.integers(0, modulus, size=(clients, dimension)),
            modulus,
            threshold=77,
            rng=rng,
        )
        per_client = {
            phase: (
                totals["up_bytes"] // clients,
                totals["down_bytes"] // clients,
            )
            for phase, totals in outcome.wire.phase_totals().items()
        }
        assert per_client == {
            "advertise": (63, 2200),
            "share-keys": (2079, 2207),
            "masked-input": (60, 155),
            "unmask": (1056, 0),
        }
        assert outcome.wire.total_bytes == 7820 * clients

    def test_recovery_round_moves_pinned_bytes(self):
        """An ``AsyncSecAggRound`` at ``secagg_recovery``'s shape: n = 96,
        d = 64, m = 2^16, t = 58, and 28 clients (30 %) silent after
        sharing keys, so 68 survivors answer for 28 dropouts.  Ids
        1..96 are one-byte gaps whichever 28 go silent:

        ============= ==== ====================================== ======
        phase         dir  frames                                  bytes
        ============= ==== ====================================== ======
        advertise     up   96 x 63                                  6048
        advertise     down 96 x (24 + 96 x (1 + 2 x 8))           158976
        share-keys    up   96 x (31 + 96 x 16)                    150432
        share-keys    down 96 x (31 + 96 x (1 + 16))              159648
        masked-input  up   68 x (28 + 64 x 2)                      10608
        masked-input  down 68 x (19 + 4 + 68 + 4 + 28)              8364
        unmask        up   68 x (32 + 8 x 68 + 8 x 28)             54400
        ============= ==== ====================================== ======

        548 476 bytes, 5 713 a client.  Format 4's u32 ids were 3 bytes
        more an id: 96 x 96 x 3 in the rosters and again in the
        deliveries, 68 x 96 x 3 in the requests (74 880 B), 6 493 a
        client."""
        clients, dimension, modulus = 96, 64, 2**16
        rng = np.random.default_rng(20220601)
        vectors = {
            u: rng.integers(0, modulus, size=dimension)
            for u in range(1, clients + 1)
        }
        victims = rng.permutation(np.arange(1, clients + 1))[:28]
        clock = SimulatedClock()
        outcome = clock.run(
            AsyncSecAggRound(
                vectors,
                modulus,
                58,
                clock,
                rng,
                plans={
                    int(u): ClientPlan(drop_phase=ROUND_MASKED_INPUT)
                    for u in victims
                },
            ).run()
        )
        assert len(outcome.included) == 68
        assert {
            phase: (totals["up_bytes"], totals["down_bytes"])
            for phase, totals in outcome.wire.phase_totals().items()
        } == {
            "advertise": (6048, 158976),
            "share-keys": (150432, 159648),
            "masked-input": (10608, 8364),
            "unmask": (54400, 0),
        }
        assert outcome.wire.total_bytes == 548476

    def test_total_is_sum_of_parts(self):
        cost = bonawitz_round_cost(50, 256, 2**10)
        assert cost.total == (
            cost.advertise + cost.share_keys + cost.masked_input + cost.unmask
        )

    def test_too_few_clients_rejected(self):
        with pytest.raises(ConfigurationError, match="num_clients"):
            bonawitz_round_cost(1, 256, 2**8)


class TestTrainingCommunication:
    def test_paper_scale_total(self):
        """Section 6.2 at m=2^8: 63,610-d model padded to 65,536, 1000
        rounds of 240 clients -> ~15.7 GB shipped in total."""
        run = training_communication(65_536, 2**8, 1000, 240)
        assert run.total_bytes == 65_536 * 1000 * 240
        assert run.total_megabytes == pytest.approx(15_000, rel=0.01)

    def test_central_baseline_is_4x_at_one_byte(self):
        private = training_communication(4096, 2**8, 10, 50)
        central = training_communication(4096, None, 10, 50)
        assert central.total_bytes == 4 * private.total_bytes

    def test_protocol_overhead_increases_total(self):
        bare = training_communication(1024, 2**8, 10, 50)
        full = training_communication(
            1024, 2**8, 10, 50, include_protocol=True
        )
        assert full.total_bytes > bare.total_bytes

    def test_invalid_rounds_rejected(self):
        with pytest.raises(ConfigurationError, match="rounds"):
            training_communication(100, 2**8, 0, 10)

    def test_invalid_batch_rejected(self):
        with pytest.raises(ConfigurationError, match="expected_batch"):
            training_communication(100, 2**8, 10, 0)

    @given(bits=st.integers(min_value=6, max_value=18))
    @settings(max_examples=13)
    def test_bitwidth_sweep_matches_figure_axis(self, bits):
        """Doubling m adds exactly d/8 bytes per client per round — the
        linear communication axis of Figures 1-3."""
        d = 16_384
        run = training_communication(d, 2**bits, 1, 1)
        assert run.per_client_round_bytes == d * bits // 8
