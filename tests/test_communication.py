"""Tests for the communication-cost model: it equals the wire."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.secagg.bonawitz import run_bonawitz, sealed_share_length
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
        """One envelope up and one 16-byte (peer, point, value) seed
        share back per further client; the masked input does not care."""
        small = bonawitz_round_cost(10, 1024, 2**8)
        large = bonawitz_round_cost(1000, 1024, 2**8)
        envelope = sealed_share_length(DhGroup())
        assert large.share_keys - small.share_keys == 990 * envelope
        assert large.unmask - small.unmask == 990 * 16
        assert large.masked_input == small.masked_input
        assert large.advertise == small.advertise

    @pytest.mark.parametrize(
        "group", [TOY_GROUP, DhGroup()], ids=["toy-dh", "oakley-2"]
    )
    @pytest.mark.parametrize("modulus", [2**8, 1000])
    def test_model_equals_a_live_rounds_ledger(self, group, modulus):
        """Phase by phase, the model is the per-client upload a
        dropout-free ``run_bonawitz`` round's ``WireStats`` records.  A
        public key or seed share with a zero top byte is a byte shorter
        on the wire (minimal-length integers, about one value in 256),
        so the model is the round's widest client — and, in the two
        phases that carry no such integer, every client."""
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
        assert set(uploads["share-keys"]) == {cost.share_keys}
        assert set(uploads["masked-input"]) == {cost.masked_input}
        assert max(uploads["advertise"]) == cost.advertise
        assert max(uploads["unmask"]) == cost.unmask
        assert cost.total == sum(max(sizes) for sizes in uploads.values())
        assert all(len(sizes) == clients for sizes in uploads.values())

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
