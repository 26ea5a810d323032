"""Tests for the vectorised SecAgg kernel layer (repro.secagg.kernels)
and the envelope matrix codec; batched Shamir is tests/test_shamir.py."""

import numpy as np
import pytest

from repro.errors import AggregationError, ConfigurationError
from repro.secagg.bonawitz import (
    BonawitzClient,
    BonawitzServer,
    _decode_payload_matrix,
    _encode_payload_matrix,
    forget_round_memos,
    run_bonawitz,
)
from repro.secagg.field import DEFAULT_FIELD
from repro.secagg.kernels import (
    DEFAULT_MASK_PRG,
    keystream_batch,
    sum_signed_masks,
)
from repro.secagg.keys import TOY_GROUP
from repro.secagg.shamir import LimbShares, Share
from repro.secagg.statemachine import ClientSession, ServerSession
from tests.secagg_reference import decode_payload, encode_payload

PRIME = DEFAULT_FIELD.prime


@pytest.fixture
def rng():
    return np.random.default_rng(23)


class TestSumSignedMasks:
    def test_matches_per_peer_loop(self):
        seeds = [bytes([i, i + 1]) * 16 for i in range(30)]
        signs = [1 if i % 3 else -1 for i in range(30)]
        modulus, dimension = 2**16, 48
        reference = np.zeros(dimension, dtype=np.int64)
        for seed, sign in zip(seeds, signs):
            mask = DEFAULT_MASK_PRG.expand(seed, dimension, modulus)
            reference = np.mod(reference + sign * mask, modulus)
        np.testing.assert_array_equal(
            sum_signed_masks(seeds, signs, dimension, modulus), reference
        )

    def test_opposite_signs_cancel(self):
        total = sum_signed_masks(
            [b"shared", b"shared"], [1, -1], 64, 2**12
        )
        np.testing.assert_array_equal(total, 0)

    def test_empty_is_zero(self):
        np.testing.assert_array_equal(
            sum_signed_masks([], [], 5, 16), np.zeros(5, dtype=np.int64)
        )

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError, match="signs"):
            sum_signed_masks([b"a"], [1, -1], 4, 16)

    def test_invalid_sign_rejected(self):
        with pytest.raises(ConfigurationError, match="sign"):
            sum_signed_masks([b"a"], [0], 4, 16)

    def test_large_modulus_accumulation_is_exact(self):
        # Sums of near-modulus masks overflow a naive int64 reduction.
        seeds = [bytes([i]) * 32 for i in range(200)]
        modulus = 2**60
        total = sum_signed_masks(seeds, [1] * len(seeds), 8, modulus)
        reference = np.zeros(8, dtype=object)
        for seed in seeds:
            mask = DEFAULT_MASK_PRG.expand(seed, 8, modulus)
            reference = (reference + mask) % modulus
        assert total.tolist() == [int(v) for v in reference]

    def test_suite_name_refused(self):
        with pytest.raises(ConfigurationError, match="unknown mask PRG"):
            sum_signed_masks([b"s"], [1], 16, 2**10, prg="sha256-ctr")


class TestKeystream:
    def test_deterministic_and_key_sensitive(self):
        a = keystream_batch([b"k" * 32], 100)
        assert np.array_equal(a, keystream_batch([b"k" * 32], 100))
        assert not np.array_equal(a, keystream_batch([b"j" * 32], 100))

    def test_batch_rows_match_single(self):
        keys = [bytes([i]) * 32 for i in range(10)]
        batch = keystream_batch(keys, 77)
        for row, key in enumerate(keys):
            np.testing.assert_array_equal(
                batch[row], keystream_batch([key], 77)[0]
            )

    def test_prefix_stability(self):
        np.testing.assert_array_equal(
            keystream_batch([b"k"], 10), keystream_batch([b"k"], 100)[:, :10]
        )

    def test_zero_length(self):
        assert keystream_batch([b"k"], 0).shape == (1, 0)
        assert keystream_batch([], 10).shape == (0, 10)

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError, match="length"):
            keystream_batch([b"k"], -1)

    def test_bytewise_uniform(self):
        stream = keystream_batch([b"uniformity"], 200_000)[0]
        counts = np.bincount(stream, minlength=256)
        expected = len(stream) / 256
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 340  # 255 dof, 99.9% quantile ~ 330.5


class TestPayloadMatrixCodec:
    # One value width: every sharing field fits uint64, so a share
    # value is 8 bytes on the wire and nothing chooses otherwise.
    @pytest.mark.parametrize("width", [8])
    @pytest.mark.parametrize("num_limbs", [1, 2, 4])
    def test_matrix_encode_matches_scalar(self, width, num_limbs, rng):
        num = 6
        seed_ys = rng.integers(0, PRIME, size=num, dtype=np.uint64)
        limb_ys = rng.integers(0, PRIME, size=(num_limbs, num),
                               dtype=np.uint64)
        matrix = _encode_payload_matrix(seed_ys, limb_ys)
        assert matrix.shape == (num, width * (1 + num_limbs))
        for position in range(num):
            scalar = encode_payload(
                Share(x=position + 1, y=int(seed_ys[position])),
                LimbShares(
                    x=position + 1,
                    ys=tuple(int(limb_ys[k, position])
                             for k in range(num_limbs)),
                ),
            )
            assert matrix[position].tobytes() == scalar

    @pytest.mark.parametrize("width", [8])
    def test_matrix_decode_matches_scalar(self, width, rng):
        num, num_limbs = 5, 2
        seed_ys = rng.integers(0, PRIME, size=num, dtype=np.uint64)
        limb_ys = rng.integers(0, PRIME, size=(num_limbs, num),
                               dtype=np.uint64)
        matrix = _encode_payload_matrix(seed_ys, limb_ys)
        assert matrix.shape[1] == width * (1 + num_limbs)
        # The decoder hands back the word table — a [seed_y, limb_ys...]
        # row of Python ints per envelope and no share object: every row
        # of a mailbox sits at its one recipient's point, which the
        # scalar oracle takes as an argument.
        decoded = _decode_payload_matrix(matrix)
        assert len(decoded) == num
        for position, row in enumerate(decoded):
            seed_share, key_share = decode_payload(
                matrix[position].tobytes(), 4
            )
            assert all(type(word) is int for word in row)
            assert row == [seed_share.y, *key_share.ys]
            assert row[0] == int(seed_ys[position])
            assert row[1:] == limb_ys[:, position].tolist()

    def test_matrix_decode_rejects_limb_mismatch(self, rng):
        """An envelope carries no limb count to get wrong: the count is
        the group's, so a row of any other length is refused — by the
        scalar oracle as malformed, by a client as not this round's."""
        matrix = _encode_payload_matrix(
            np.array([1, 2], dtype=np.uint64),
            np.array([[3, 4]], dtype=np.uint64),
        )
        with pytest.raises(AggregationError, match="malformed"):
            decode_payload(matrix[1, :-1].tobytes(), 1)
        client = BonawitzClient(
            1, np.zeros(4, dtype=np.int64), 2**8, 2, rng, TOY_GROUP
        )
        with pytest.raises(AggregationError, match="this round's are 24"):
            client.receive_share_matrix([1, 2], matrix)


class TestProtocolBackendKnob:
    """Every party that takes a mask-PRG instance refuses a suite name
    when it is built, not at its first expansion."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda prg: BonawitzClient(
                1, np.zeros(4, dtype=np.int64), 2**12, 2,
                np.random.default_rng(0), TOY_GROUP, mask_prg=prg,
            ),
            lambda prg: BonawitzServer(
                2**12, 4, 2, group=TOY_GROUP, mask_prg=prg
            ),
            lambda prg: ClientSession(
                1, np.zeros(4, dtype=np.int64), 2**12, 2,
                np.random.default_rng(0), TOY_GROUP, mask_prg=prg,
            ),
            lambda prg: ServerSession(
                2**12, 4, 2, group=TOY_GROUP, mask_prg=prg
            ),
            lambda prg: forget_round_memos(TOY_GROUP, prg),
        ],
        ids=[
            "BonawitzClient",
            "BonawitzServer",
            "ClientSession",
            "ServerSession",
            "forget_round_memos",
        ],
    )
    def test_suite_name_rejected(self, build):
        with pytest.raises(ConfigurationError, match="unknown mask PRG"):
            build("sha256-ctr")


class TestSmallFieldGuard:
    def test_share_keys_rejects_field_below_limb_width(self, rng):
        # Regression: the batched split must keep split_large_secret's
        # limb-width-vs-field fail-fast.
        from repro.secagg.field import PrimeField

        tiny_field = PrimeField(prime=(1 << 31) - 1)
        inputs = rng.integers(0, 2**8, size=(3, 4), dtype=np.int64)
        with pytest.raises(ConfigurationError, match="limb width"):
            run_bonawitz(inputs, 2**8, threshold=2, rng=rng, field=tiny_field)
