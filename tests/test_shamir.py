"""Unit and property tests for Shamir secret sharing."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AggregationError, ConfigurationError
from repro.linalg.modular import horner_mod
from repro.secagg.field import PrimeField
from repro.secagg.shamir import (
    LimbShares,
    Share,
    lagrange_weights_at_zero,
    reconstruct_large_secret,
    reconstruct_quorum,
    reconstruct_secret,
    reconstruct_secrets,
    split_large_secret,
    split_secret,
    split_secrets,
)
from tests.secagg_reference import (
    reconstruct_secret_scalar,
    split_secret_scalar,
)

FIELD = PrimeField(prime=(1 << 61) - 1)
PRIME = FIELD.prime


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestSplit:
    def test_share_count(self, rng):
        shares = split_secret(123, threshold=3, num_shares=5, rng=rng)
        assert len(shares) == 5
        assert [s.x for s in shares] == [1, 2, 3, 4, 5]

    def test_threshold_one_shares_are_the_secret(self, rng):
        # Degree-0 polynomial: every share equals the secret.
        shares = split_secret(99, threshold=1, num_shares=4, rng=rng)
        assert all(s.y == 99 for s in shares)

    def test_secret_outside_field_rejected(self, rng):
        with pytest.raises(ConfigurationError, match="secret"):
            split_secret(FIELD.prime, 2, 3, rng, FIELD)

    def test_negative_secret_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            split_secret(-1, 2, 3, rng, FIELD)

    def test_threshold_above_share_count_rejected(self, rng):
        with pytest.raises(ConfigurationError, match="threshold"):
            split_secret(5, threshold=4, num_shares=3, rng=rng)

    def test_zero_threshold_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            split_secret(5, threshold=0, num_shares=3, rng=rng)

    def test_too_many_shares_for_tiny_field_rejected(self, rng):
        tiny = PrimeField(prime=7)
        with pytest.raises(ConfigurationError, match="at most"):
            split_secret(3, threshold=2, num_shares=7, rng=rng, field=tiny)


class TestReconstruct:
    def test_roundtrip(self, rng):
        secret = 987654321
        shares = split_secret(secret, 3, 6, rng)
        assert reconstruct_secret(shares[:3]) == secret

    def test_any_subset_of_threshold_size_works(self, rng):
        secret = 31415926
        shares = split_secret(secret, 3, 6, rng)
        for subset in itertools.combinations(shares, 3):
            assert reconstruct_secret(subset) == secret

    def test_extra_shares_are_harmless(self, rng):
        secret = 271828
        shares = split_secret(secret, 2, 5, rng)
        assert reconstruct_secret(shares) == secret

    def test_below_threshold_gives_wrong_secret(self, rng):
        # t-1 shares determine a different (effectively random) constant
        # term; check it is not accidentally the secret for this seed.
        secret = 55555
        shares = split_secret(secret, threshold=3, num_shares=5, rng=rng)
        assert reconstruct_secret(shares[:2]) != secret

    def test_zero_shares_rejected(self):
        with pytest.raises(AggregationError, match="zero shares"):
            reconstruct_secret([])

    def test_duplicate_points_rejected(self, rng):
        shares = split_secret(5, 2, 3, rng)
        with pytest.raises(AggregationError, match="duplicate"):
            reconstruct_secret([shares[0], shares[0]])

    def test_out_of_field_value_rejected(self):
        with pytest.raises(AggregationError, match="outside"):
            reconstruct_secret([Share(x=1, y=FIELD.prime), Share(x=2, y=0)])

    def test_zero_point_rejected(self):
        # x = 0 would directly expose the secret as its own share.
        with pytest.raises(AggregationError, match="outside"):
            reconstruct_secret([Share(x=0, y=5), Share(x=1, y=6)])

    @given(
        secret=st.integers(min_value=0, max_value=FIELD.prime - 1),
        threshold=st.integers(min_value=1, max_value=5),
        extra=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, secret, threshold, extra, seed):
        rng = np.random.default_rng(seed)
        shares = split_secret(secret, threshold, threshold + extra, rng)
        # Reconstruct from a random threshold-sized subset.
        chosen = rng.choice(len(shares), size=threshold, replace=False)
        assert reconstruct_secret([shares[i] for i in chosen]) == secret


class TestSecrecy:
    def test_single_share_is_uniform_over_secrets(self):
        """With t >= 2, share y-values are uniform: the histogram of one
        share over many polynomial draws must not concentrate."""
        field = PrimeField(prime=101)
        rng = np.random.default_rng(3)
        values = [
            split_secret(42, 2, 3, rng, field)[0].y for _ in range(2000)
        ]
        counts = np.bincount(values, minlength=101)
        # Expected ~19.8 per bin; a degenerate scheme would pile on few.
        assert counts.max() < 60

    def test_shares_of_different_secrets_indistinguishable(self):
        """Mean |share| should not track the secret when t >= 2."""
        field = PrimeField(prime=101)
        rng = np.random.default_rng(4)
        means = []
        for secret in (0, 50, 100):
            values = [
                split_secret(secret, 2, 2, rng, field)[0].y
                for _ in range(3000)
            ]
            means.append(np.mean(values))
        assert np.ptp(means) < 10  # all near the uniform mean of 50


class TestLargeSecrets:
    def test_roundtrip_dh_sized_secret(self, rng):
        secret = (1 << 1023) + 987654321987654321
        shares = split_large_secret(secret, 3, 5, rng)
        assert reconstruct_large_secret(shares[:3]) == secret

    def test_zero_secret_roundtrips(self, rng):
        shares = split_large_secret(0, 2, 3, rng)
        assert reconstruct_large_secret(shares[:2]) == 0

    def test_single_limb_secret(self, rng):
        shares = split_large_secret(12345, 2, 4, rng)
        assert len(shares[0].ys) == 1
        assert reconstruct_large_secret(shares[1:3]) == 12345

    def test_limb_count_matches_bit_length(self, rng):
        secret = (1 << 180) - 1  # 180 bits -> 3 limbs of 60 bits
        shares = split_large_secret(secret, 2, 3, rng)
        assert len(shares[0].ys) == 3

    def test_negative_secret_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            split_large_secret(-5, 2, 3, rng)

    def test_oversized_limb_width_rejected(self, rng):
        with pytest.raises(ConfigurationError, match="limb"):
            split_large_secret(5, 2, 3, rng, limb_bits=62)

    def test_mismatched_limb_counts_rejected(self, rng):
        a = split_large_secret(1 << 100, 2, 3, rng)
        b = split_large_secret(7, 2, 3, rng)
        with pytest.raises(AggregationError, match="limb counts"):
            reconstruct_large_secret([a[0], b[1]])

    def test_zero_shares_rejected(self):
        with pytest.raises(AggregationError):
            reconstruct_large_secret([])

    @given(
        bits=st.integers(min_value=0, max_value=400),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, bits, seed):
        rng = np.random.default_rng(seed)
        secret = (1 << bits) | int(rng.integers(0, 1 << min(bits, 60) | 1))
        shares = split_large_secret(secret, 3, 4, rng)
        assert reconstruct_large_secret(shares[:3]) == secret


class TestScalarVectorEquivalence:
    """The scalar oracles (``tests/secagg_reference.py``) and the matrix
    implementation must agree share-for-share and secret-for-secret."""

    @given(
        secret=st.integers(min_value=0, max_value=FIELD.prime - 1),
        threshold=st.integers(min_value=1, max_value=6),
        extra=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_reconstruct_agreement_property(
        self, secret, threshold, extra, seed
    ):
        """Identical shares -> identical secrets on both paths."""
        rng = np.random.default_rng(seed)
        shares = split_secret(secret, threshold, threshold + extra, rng)
        chosen = [
            shares[i]
            for i in rng.choice(len(shares), size=threshold, replace=False)
        ]
        assert (
            reconstruct_secret(chosen)
            == reconstruct_secret_scalar(chosen)
            == secret
        )

    @given(
        secret=st.integers(min_value=0, max_value=FIELD.prime - 1),
        threshold=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_cross_path_roundtrip_property(self, secret, threshold, seed):
        """Scalar-split shares reconstruct through the vectorised path
        and vice versa."""
        scalar_shares = split_secret_scalar(
            secret, threshold, threshold + 2, np.random.default_rng(seed)
        )
        vector_shares = split_secret(
            secret, threshold, threshold + 2, np.random.default_rng(seed)
        )
        assert reconstruct_secret(scalar_shares[:threshold]) == secret
        assert reconstruct_secret_scalar(vector_shares[:threshold]) == secret

    @given(
        num_secrets=st.integers(min_value=1, max_value=6),
        threshold=st.integers(min_value=1, max_value=5),
        extra=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_batched_split_reconstruct_roundtrip(
        self, num_secrets, threshold, extra, seed
    ):
        rng = np.random.default_rng(seed)
        secrets = [
            int(rng.integers(0, FIELD.prime)) for _ in range(num_secrets)
        ]
        num_shares = threshold + extra
        matrix = split_secrets(secrets, threshold, num_shares, rng)
        subset = rng.choice(num_shares, size=threshold, replace=False)
        xs = [int(j) + 1 for j in subset]
        rows = [[int(matrix[i, j]) for j in subset] for i in range(num_secrets)]
        assert reconstruct_secrets(xs, rows) == secrets
        # Row-by-row agreement with the scalar reference reconstruction.
        for i in range(num_secrets):
            assert reconstruct_secret_scalar(
                [Share(x=x, y=y) for x, y in zip(xs, rows[i])]
            ) == secrets[i]

    @given(
        threshold=st.integers(min_value=1, max_value=6),
        extra=st.integers(min_value=0, max_value=4),
        survivors=st.integers(min_value=0, max_value=5),
        dropouts=st.integers(min_value=0, max_value=4),
        limbs=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_quorum_reconstruction_matches_scalar_row_for_row(
        self, threshold, extra, survivors, dropouts, limbs, seed
    ):
        """What an unmask phase reconstructs — a seed per survivor and
        ``limbs`` limbs per dropout, all from one quorum subset and one
        weight vector — equals the scalar reference on every row,
        including no dropouts at all and one-limb keys."""
        rng = np.random.default_rng(seed)
        num_shares = threshold + extra
        seeds = [int(rng.integers(0, FIELD.prime)) for _ in range(survivors)]
        keys = [
            int.from_bytes(rng.bytes(8 * limbs), "little") % (1 << 60 * limbs)
            | ((1 << 60 * (limbs - 1)) if limbs > 1 else 0)
            for _ in range(dropouts)
        ]
        seed_matrix = split_secrets(seeds, threshold, num_shares, rng)
        key_shares = [
            split_large_secret(key, threshold, num_shares, rng) for key in keys
        ]
        subset = [
            int(j)
            for j in rng.choice(num_shares, size=threshold, replace=False)
        ]
        xs = [j + 1 for j in subset]
        seed_rows = [
            [int(seed_matrix[i, j]) for j in subset] for i in range(survivors)
        ]
        limb_sets = [[shares[j] for j in subset] for shares in key_shares]
        got_seeds, got_keys = reconstruct_quorum(xs, seed_rows, limb_sets)
        assert got_seeds == seeds
        assert got_keys == keys
        for row, value in zip(seed_rows, got_seeds):
            assert value == reconstruct_secret_scalar(
                [Share(x=x, y=y) for x, y in zip(xs, row)]
            )
        for shares, value in zip(limb_sets, got_keys):
            assert len(shares[0].ys) == limbs
            reference = 0
            for k in reversed(range(limbs)):
                reference = (reference << 60) | reconstruct_secret_scalar(
                    [Share(x=share.x, y=share.ys[k]) for share in shares]
                )
            assert value == reference
            assert value == reconstruct_large_secret(shares)

    def test_small_field_routes_through_kernels(self, rng):
        field = PrimeField(prime=101)
        shares = split_secret(42, 3, 7, rng, field)
        assert reconstruct_secret(shares[2:5], field) == 42
        assert reconstruct_secret_scalar(shares[2:5], field) == 42

    def test_scalar_and_vector_validation_parity(self, rng):
        for split in (split_secret, split_secret_scalar):
            with pytest.raises(ConfigurationError):
                split(-1, 2, 3, rng)
            with pytest.raises(ConfigurationError, match="threshold"):
                split(5, 4, 3, rng)
            with pytest.raises(ConfigurationError):
                split(FIELD.prime, 2, 3, rng, FIELD)


class TestMatrixSplitIsTheSameSplit:
    """Split became ``coefficients @ powers``; the shares did not move.

    The goldens were recorded at the parent commit (the sequential
    Horner loop) *before* the change: secrets from the seeded generator,
    then :func:`split_secrets` on the same generator — the SHA-256 of
    the ``(k, n)`` share matrix as little-endian uint64 pins every
    share, the corner values make a mismatch readable, and the next
    draw pins that the split consumed exactly the same randomness.
    """

    GOLDEN = {
        # (secrets, threshold, shares): the round's shape at n = 128 ...
        (3, 77, 128): (
            20220601,
            "a2d7c93d85884c2e9812a9dbc98cdf03b1e3447d89c6d62be37c6bbb05f19a9d",
            [932900539507581249, 592352809046561363],
            [34106716675764793, 2198622052865438582],
            3191417102203677523,
        ),
        # ... and an Oakley-sized one (a seed and 18 key limbs).
        (19, 145, 240): (
            20220602,
            "0a5b17d64f3eac17c0ef5aa13d7e4bc6aff9364ebcc47546bee69f1dafcd63ce",
            [1995166696026936029, 941911104071725279],
            [557814153330885763, 1830717124223282287],
            4180074313463427324,
        ),
    }

    @pytest.mark.parametrize("shape", sorted(GOLDEN))
    def test_shares_equal_the_parent_commits(self, shape):
        count, threshold, num_shares = shape
        seed, digest, first, last, next_draw = self.GOLDEN[shape]
        rng = np.random.default_rng(seed)
        secrets = [int(v) for v in rng.integers(0, FIELD.prime, size=count)]
        shares = split_secrets(secrets, threshold, num_shares, rng, FIELD)
        assert shares.shape == (count, num_shares)
        assert shares[0, :2].tolist() == first
        assert shares[-1, -2:].tolist() == last
        assert hashlib.sha256(
            np.ascontiguousarray(shares, dtype="<u8").tobytes()
        ).hexdigest() == digest
        assert int(rng.integers(0, 2**62)) == next_draw

    def test_points_near_the_prime(self):
        """Points up to ``p - 1`` — the generic loop ``horner_mod`` used
        to keep beside its small-``x`` kernel — against the field's own
        scalar evaluation."""
        p = FIELD.prime
        rng = np.random.default_rng(11)
        coefficients = rng.integers(0, p, size=(4, 12), dtype=np.uint64)
        points = [p - 1, p - 2, p - (1 << 21), p - (1 << 42), 1 << 60, 1]
        values = horner_mod(
            coefficients, np.asarray(points, dtype=np.uint64), p
        )
        for row, polynomial in zip(values.tolist(), coefficients.tolist()):
            assert row == [
                FIELD.evaluate_polynomial(polynomial, x) for x in points
            ]


class TestBatchedShamirKernels:
    def test_split_shape_and_roundtrip(self, rng):
        secrets = rng.integers(0, PRIME, size=7, dtype=np.uint64)
        ys = split_secrets(secrets, threshold=4, num_shares=9, rng=rng)
        assert ys.shape == (7, 9)
        xs = np.arange(1, 10, dtype=np.uint64)
        subset = [0, 3, 5, 8]
        np.testing.assert_array_equal(
            reconstruct_secrets(xs[subset], ys[:, subset]), secrets
        )

    def test_threshold_one_is_constant(self, rng):
        ys = split_secrets([123], 1, 5, rng)
        assert ys.tolist() == [[123] * 5]

    def test_secret_out_of_field_rejected(self, rng):
        with pytest.raises(ConfigurationError, match="secret"):
            split_secrets([PRIME], 2, 3, rng)

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
            AggregationError, match=rf"share point 0 outside \(0, {PRIME}\)"
        ):
            lagrange_weights_at_zero(np.array([0, 1], dtype=np.uint64), PRIME)

    def test_out_of_field_point_rejected(self):
        with pytest.raises(
            AggregationError,
            match=rf"share point {PRIME} outside \(0, {PRIME}\)",
        ):
            lagrange_weights_at_zero([1, PRIME], PRIME)

    def test_empty_points_rejected(self):
        with pytest.raises(
            AggregationError, match="cannot reconstruct from zero shares"
        ):
            lagrange_weights_at_zero(np.array([], dtype=np.uint64), PRIME)

    def test_mismatched_row_width_rejected(self):
        with pytest.raises(AggregationError, match="points"):
            reconstruct_secrets(
                np.array([1, 2], dtype=np.uint64),
                np.array([[1, 2, 3]], dtype=np.uint64),
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
        ys = split_secrets(secrets, threshold, threshold + 2, rng)
        xs = np.arange(1, threshold + 3, dtype=np.uint64)
        chosen = rng.choice(threshold + 2, size=threshold, replace=False)
        np.testing.assert_array_equal(
            reconstruct_secrets(xs[chosen], ys[:, chosen]), secrets
        )


class TestBatchedRejection:
    """The batched paths keep the scalar paths' failure modes."""

    def test_duplicate_points_rejected(self, rng):
        shares = split_secret(5, 2, 3, rng)
        duplicated = [shares[0], shares[0]]
        with pytest.raises(AggregationError, match="duplicate"):
            reconstruct_secret(duplicated)
        with pytest.raises(AggregationError, match="duplicate"):
            reconstruct_secrets([1, 1], [[shares[0].y, shares[0].y]])

    def test_zero_shares_rejected_batched(self):
        with pytest.raises(AggregationError, match="zero shares"):
            reconstruct_secret([])

    def test_empty_batch_is_empty(self):
        assert reconstruct_secrets([1, 2], []) == []

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(AggregationError, match="disagree"):
            reconstruct_secrets([1, 2, 3], [[4, 5]])

    def test_out_of_field_value_rejected_batched(self):
        with pytest.raises(AggregationError, match="outside"):
            reconstruct_secrets([1, 2], [[FIELD.prime, 0]])

    def test_zero_point_rejected_batched(self):
        with pytest.raises(AggregationError, match="outside"):
            reconstruct_secrets([0, 1], [[5, 6]])

    def test_insufficient_shares_give_wrong_secret(self, rng):
        # Below-threshold reconstruction yields an unrelated value on
        # both paths (the secrecy property, not a detectable error).
        shares = split_secret(77777, threshold=3, num_shares=5, rng=rng)
        assert reconstruct_secret(shares[:2]) != 77777
        assert reconstruct_secret_scalar(shares[:2]) != 77777

    def test_quorum_checks_every_share(self, rng):
        """The batched unmask reconstruction refuses what the one-secret
        paths refuse, on whichever row it sits."""
        a = split_large_secret(1 << 100, 2, 3, rng)
        b = split_large_secret(7, 2, 3, rng)
        good = [a[0], a[1]]
        with pytest.raises(AggregationError, match="zero shares"):
            reconstruct_quorum([], [], [[]])
        with pytest.raises(AggregationError, match="limb counts"):
            reconstruct_quorum([1, 2], [], [good, [a[0], b[1]]])
        with pytest.raises(AggregationError, match="quorum's points"):
            reconstruct_quorum([1, 2], [], [good, [a[0], a[2]]])
        with pytest.raises(AggregationError, match="duplicate"):
            reconstruct_quorum([1, 1], [[3, 4]], [[a[0], a[0]]])
        with pytest.raises(AggregationError, match="disagree"):
            reconstruct_quorum([1, 2], [[3, 4, 5]], [good])
        # Out-of-field values on a later row, wider than uint64 included
        # (numpy alone would raise OverflowError there).
        for bad in (FIELD.prime, 1 << 70, -1):
            with pytest.raises(AggregationError, match="outside"):
                reconstruct_quorum([1, 2], [[3, 4], [5, bad]], [good])
            wide = LimbShares(x=2, ys=(a[1].ys[0], bad))
            with pytest.raises(AggregationError, match="outside"):
                reconstruct_quorum([1, 2], [[3, 4]], [good, [a[0], wide]])

    def test_split_secrets_validates_every_secret(self, rng):
        with pytest.raises(ConfigurationError, match="secret"):
            split_secrets([1, FIELD.prime], 2, 3, rng)

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda rng: split_secrets([1.5], 2, 3, rng), ConfigurationError),
            (
                lambda rng: split_secrets([[1, 2]], 2, 3, rng),
                ConfigurationError,
            ),
            (
                lambda rng: reconstruct_secrets([1.5, 2], [[1, 2]]),
                AggregationError,
            ),
            (
                lambda rng: reconstruct_secrets([1, 2], [[1.5, 2]]),
                AggregationError,
            ),
            (lambda rng: reconstruct_secrets([1, 1], []), AggregationError),
        ],
        ids=[
            "float-secret",
            "nested-secret",
            "float-point",
            "float-value",
            "duplicate-points-without-rows",
        ],
    )
    def test_malformed_input_refused_typed(self, rng, call, error):
        """Checked as Python values before any uint64 cast: nothing is
        truncated into a share, and no bare TypeError escapes."""
        with pytest.raises(error):
            call(rng)
