"""Tests for the vectorised SecAgg kernel layer (repro.secagg.kernels)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AggregationError, ConfigurationError
from repro.secagg.bonawitz import (
    BonawitzClient,
    _decode_payload,
    _decode_payload_matrix,
    _encode_payload,
    _encode_payload_matrix,
    run_bonawitz,
)
from repro.secagg.field import DEFAULT_FIELD
from repro.secagg.kernels import (
    batched_reconstruct,
    batched_split,
    keystream,
    keystream_batch,
    lagrange_weights_at_zero,
    sum_signed_masks,
)
from repro.secagg.keys import TOY_GROUP
from repro.secagg.prg import expand_mask, pairwise_delta
from repro.secagg.shamir import LimbShares, Share

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
            reference = np.mod(
                reference + pairwise_delta(seed, dimension, modulus, sign),
                modulus,
            )
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
            reference = (reference + expand_mask(seed, 8, modulus)) % modulus
        assert total.tolist() == [int(v) for v in reference]

    def test_sha256_ctr_backend_selectable(self):
        default = sum_signed_masks([b"s"], [1], 16, 2**10)
        sha = sum_signed_masks([b"s"], [1], 16, 2**10, prg="sha256-ctr")
        assert not np.array_equal(default, sha)
        np.testing.assert_array_equal(
            sha, expand_mask(b"s", 16, 2**10, prg="sha256-ctr")
        )


class TestKeystream:
    def test_deterministic_and_key_sensitive(self):
        a = keystream(b"k" * 32, 100)
        assert np.array_equal(a, keystream(b"k" * 32, 100))
        assert not np.array_equal(a, keystream(b"j" * 32, 100))

    def test_batch_rows_match_single(self):
        keys = [bytes([i]) * 32 for i in range(10)]
        batch = keystream_batch(keys, 77)
        for row, key in enumerate(keys):
            np.testing.assert_array_equal(batch[row], keystream(key, 77))

    def test_prefix_stability(self):
        np.testing.assert_array_equal(
            keystream(b"k", 10), keystream(b"k", 100)[:10]
        )

    def test_zero_length(self):
        assert keystream(b"k", 0).shape == (0,)
        assert keystream_batch([], 10).shape == (0, 10)

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError, match="length"):
            keystream(b"k", -1)

    def test_bytewise_uniform(self):
        stream = keystream(b"uniformity", 200_000)
        counts = np.bincount(stream, minlength=256)
        expected = len(stream) / 256
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 340  # 255 dof, 99.9% quantile ~ 330.5


class TestBatchedShamirKernels:
    def test_split_shape_and_roundtrip(self, rng):
        secrets = rng.integers(0, PRIME, size=7, dtype=np.uint64)
        ys = batched_split(secrets, threshold=4, num_shares=9, rng=rng,
                           prime=PRIME)
        assert ys.shape == (7, 9)
        xs = np.arange(1, 10, dtype=np.uint64)
        subset = [0, 3, 5, 8]
        np.testing.assert_array_equal(
            batched_reconstruct(xs[subset], ys[:, subset], PRIME), secrets
        )

    def test_threshold_one_is_constant(self, rng):
        ys = batched_split([123], 1, 5, rng, PRIME)
        assert ys.tolist() == [[123] * 5]

    def test_secret_out_of_field_rejected(self, rng):
        with pytest.raises(ConfigurationError, match="secrets"):
            batched_split([PRIME], 2, 3, rng, PRIME)

    def test_weights_interpolate_known_polynomial(self):
        # f(x) = 5 + 3x + 2x^2 over GF(p): weights at 0 recover f(0).
        xs = np.array([2, 7, 11], dtype=np.uint64)
        f = lambda x: (5 + 3 * x + 2 * x * x) % PRIME
        weights = lagrange_weights_at_zero(xs, PRIME)
        acc = sum(int(w) * f(int(x)) for w, x in zip(weights, xs)) % PRIME
        assert acc == 5

    @pytest.mark.parametrize(
        "xs, prime, golden",
        [
            # Frozen from the uint64 array implementation (pairwise
            # difference matrix, row products, Fermat ladders) that the
            # plain-integer one replaced: same weights, bit for bit.
            (
                [1, 2, 3, 5, 8, 13],
                PRIME,
                [
                    823515360433462130, 2026346886884761343,
                    1844674407370955166, 1345075088707988137,
                    2020357684263427081, 1163402609194181948,
                ],
            ),
            (
                [96, 7, 41, 1, 58],
                PRIME,
                [
                    1517162349225608944, 1130135904066102815,
                    112833261564417185, 1220670280740900293,
                    630884222830358666,
                ],
            ),
            (
                [PRIME - 1, 1, 1 << 60, 123456789012345678, 2],
                PRIME,
                [
                    1052772513245848679, 520874216939826426,
                    1509381587828000146, 1740137647033894613,
                    2094363062593511990,
                ],
            ),
            ([5], PRIME, [1]),
            ([3, 1, 100, 57], 101, [16, 95, 18, 74]),
        ],
    )
    def test_weights_match_frozen_goldens(self, xs, prime, golden):
        weights = lagrange_weights_at_zero(xs, prime)
        assert weights.dtype == np.uint64
        assert weights.tolist() == golden

    def test_duplicate_points_rejected(self):
        with pytest.raises(
            AggregationError, match=r"duplicate share points: \[1, 1\]"
        ):
            lagrange_weights_at_zero(np.array([1, 1], dtype=np.uint64), PRIME)

    def test_zero_point_rejected(self):
        with pytest.raises(
            AggregationError,
            match=rf"share points must lie in \(0, {PRIME}\), "
            r"got range \[0, 1\]",
        ):
            lagrange_weights_at_zero(np.array([0, 1], dtype=np.uint64), PRIME)

    def test_out_of_field_point_rejected(self):
        with pytest.raises(
            AggregationError,
            match=rf"share points must lie in \(0, {PRIME}\), "
            rf"got range \[1, {PRIME}\]",
        ):
            lagrange_weights_at_zero([1, PRIME], PRIME)

    def test_empty_points_rejected(self):
        with pytest.raises(
            AggregationError, match="cannot reconstruct from zero shares"
        ):
            lagrange_weights_at_zero(np.array([], dtype=np.uint64), PRIME)

    def test_mismatched_row_width_rejected(self):
        with pytest.raises(AggregationError, match="points"):
            batched_reconstruct(
                np.array([1, 2], dtype=np.uint64),
                np.array([[1, 2, 3]], dtype=np.uint64),
                PRIME,
            )

    @given(
        threshold=st.integers(min_value=1, max_value=6),
        num_secrets=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, threshold, num_secrets, seed):
        rng = np.random.default_rng(seed)
        secrets = rng.integers(0, PRIME, size=num_secrets, dtype=np.uint64)
        ys = batched_split(secrets, threshold, threshold + 2, rng, PRIME)
        xs = np.arange(1, threshold + 3, dtype=np.uint64)
        chosen = rng.choice(threshold + 2, size=threshold, replace=False)
        np.testing.assert_array_equal(
            batched_reconstruct(xs[chosen], ys[:, chosen], PRIME), secrets
        )


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
            scalar = _encode_payload(
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
            seed_share, key_share = _decode_payload(
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
            _decode_payload(matrix[1, :-1].tobytes(), 1)
        client = BonawitzClient(
            1, np.zeros(4, dtype=np.int64), 2**8, 2, rng, TOY_GROUP
        )
        with pytest.raises(AggregationError, match="this round's are 24"):
            client.receive_share_matrix([1, 2], matrix)


class TestProtocolBackendKnob:
    def test_run_bonawitz_sha256_ctr_backend(self, rng):
        inputs = rng.integers(0, 2**12, size=(5, 16), dtype=np.int64)
        outcome = run_bonawitz(
            inputs, 2**12, threshold=3, rng=rng, mask_prg="sha256-ctr"
        )
        np.testing.assert_array_equal(
            outcome.modular_sum, np.mod(inputs.sum(axis=0), 2**12)
        )

    def test_run_bonawitz_sha256_ctr_with_dropouts(self, rng):
        inputs = rng.integers(0, 2**12, size=(6, 8), dtype=np.int64)
        outcome = run_bonawitz(
            inputs,
            2**12,
            threshold=3,
            rng=rng,
            dropouts={2: 2, 5: 3},
            mask_prg="sha256-ctr",
        )
        included = sorted(outcome.included)
        expected = np.mod(
            inputs[[i - 1 for i in included]].sum(axis=0), 2**12
        )
        np.testing.assert_array_equal(outcome.modular_sum, expected)

    def test_unknown_backend_rejected(self, rng):
        inputs = rng.integers(0, 2**12, size=(3, 4), dtype=np.int64)
        with pytest.raises(ConfigurationError, match="unknown mask PRG"):
            run_bonawitz(inputs, 2**12, threshold=2, rng=rng, mask_prg="zip")


class TestSmallFieldGuard:
    def test_share_keys_rejects_field_below_limb_width(self, rng):
        # Regression: the batched split must keep split_large_secret's
        # limb-width-vs-field fail-fast.
        from repro.secagg.field import PrimeField

        tiny_field = PrimeField(prime=(1 << 31) - 1)
        inputs = rng.integers(0, 2**8, size=(3, 4), dtype=np.int64)
        with pytest.raises(ConfigurationError, match="limb width"):
            run_bonawitz(inputs, 2**8, threshold=2, rng=rng, field=tiny_field)
