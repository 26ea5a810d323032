"""Tests for DH key agreement and the deterministic mask PRG."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.secagg.kernels import (
    DEFAULT_MASK_PRG,
    MASK_PRGS,
    Sha256CounterPrg,
    Shake256Prg,
    get_mask_prg,
)
from repro.secagg.bonawitz import BonawitzClient, warm_pairwise_agreements
from repro.secagg.keys import (
    OAKLEY_GROUP_2_PRIME,
    SCALAR_BATCH_MAX,
    TOY_GROUP,
    DhGroup,
    KeyPair,
    _group_cache,
    agree,
    agree_batch,
    forget_agreements,
    generate_keypair,
    warm_agreement_cache,
)
from repro.secagg.prg import expand_mask, expand_mask_reference, pairwise_delta


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestDhGroup:
    def test_oakley_prime_has_expected_size(self):
        assert OAKLEY_GROUP_2_PRIME.bit_length() == 1024

    def test_default_group_is_oakley(self):
        group = DhGroup()
        assert group.prime == OAKLEY_GROUP_2_PRIME
        assert group.generator == 2

    def test_composite_modulus_rejected(self):
        with pytest.raises(ConfigurationError, match="prime"):
            DhGroup(prime=2**61, generator=3)

    def test_generator_bounds_enforced(self):
        with pytest.raises(ConfigurationError, match="generator"):
            DhGroup(prime=101, generator=1)
        with pytest.raises(ConfigurationError, match="generator"):
            DhGroup(prime=101, generator=101)


class TestKeyAgreement:
    def test_keypair_consistency_enforced(self):
        with pytest.raises(ConfigurationError, match="public key"):
            KeyPair(private=5, public=7, group=TOY_GROUP)

    def test_agreement_is_symmetric(self, rng):
        alice = generate_keypair(rng, TOY_GROUP)
        bob = generate_keypair(rng, TOY_GROUP)
        assert agree(alice.private, bob.public, TOY_GROUP) == agree(
            bob.private, alice.public, TOY_GROUP
        )

    def test_agreement_symmetric_in_full_size_group(self, rng):
        group = DhGroup()
        alice = generate_keypair(rng, group)
        bob = generate_keypair(rng, group)
        assert agree(alice.private, bob.public, group) == agree(
            bob.private, alice.public, group
        )

    def test_derived_key_is_32_bytes(self, rng):
        alice = generate_keypair(rng, TOY_GROUP)
        bob = generate_keypair(rng, TOY_GROUP)
        assert len(agree(alice.private, bob.public, TOY_GROUP)) == 32

    def test_distinct_pairs_get_distinct_keys(self, rng):
        alice, bob, carol = (
            generate_keypair(rng, TOY_GROUP) for _ in range(3)
        )
        ab = agree(alice.private, bob.public, TOY_GROUP)
        ac = agree(alice.private, carol.public, TOY_GROUP)
        assert ab != ac

    def test_identity_public_key_rejected(self, rng):
        alice = generate_keypair(rng, TOY_GROUP)
        with pytest.raises(ConfigurationError, match="peer public"):
            agree(alice.private, 1, TOY_GROUP)

    def test_out_of_group_public_key_rejected(self, rng):
        alice = generate_keypair(rng, TOY_GROUP)
        with pytest.raises(ConfigurationError):
            agree(alice.private, TOY_GROUP.prime, TOY_GROUP)

    def test_keypairs_are_fresh(self, rng):
        first = generate_keypair(rng, TOY_GROUP)
        second = generate_keypair(rng, TOY_GROUP)
        assert first.private != second.private

    def test_private_exponent_covers_large_group(self, rng):
        """Private keys in the 1024-bit group must exceed 63 bits —
        a regression guard for limb-wise sampling."""
        group = DhGroup()
        pairs = [generate_keypair(rng, group) for _ in range(8)]
        assert max(pair.private.bit_length() for pair in pairs) > 100


class TestExpandMask:
    def test_deterministic(self):
        a = expand_mask(b"seed", 64, 2**16)
        b = expand_mask(b"seed", 64, 2**16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = expand_mask(b"seed-a", 64, 2**16)
        b = expand_mask(b"seed-b", 64, 2**16)
        assert not np.array_equal(a, b)

    def test_range_power_of_two(self):
        mask = expand_mask(b"x", 1000, 256)
        assert mask.min() >= 0 and mask.max() < 256

    def test_range_general_modulus(self):
        mask = expand_mask(b"x", 1000, 1000)
        assert mask.min() >= 0 and mask.max() < 1000

    def test_prefix_stability(self):
        """Longer expansions of the same seed extend shorter ones."""
        short = expand_mask(b"s", 10, 2**20)
        long = expand_mask(b"s", 50, 2**20)
        np.testing.assert_array_equal(short, long[:10])

    def test_zero_dimension(self):
        assert expand_mask(b"s", 0, 256).shape == (0,)

    def test_bad_modulus_rejected(self):
        with pytest.raises(ConfigurationError, match="modulus"):
            expand_mask(b"s", 4, 1)

    def test_negative_dimension_rejected(self):
        with pytest.raises(ConfigurationError, match="dimension"):
            expand_mask(b"s", -1, 256)

    def test_uniformity_power_of_two(self):
        mask = expand_mask(b"uniformity", 200_000, 8)
        counts = np.bincount(mask, minlength=8)
        # Chi-square against uniform: 7 dof, 99.9% quantile ~ 24.3.
        expected = len(mask) / 8
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 30

    def test_uniformity_general_modulus(self):
        mask = expand_mask(b"uniformity", 120_000, 6)
        counts = np.bincount(mask, minlength=6)
        expected = len(mask) / 6
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 25

    @given(
        modulus=st.integers(min_value=2, max_value=2**20),
        dimension=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_property(self, modulus, dimension):
        mask = expand_mask(b"prop", dimension, modulus)
        assert mask.shape == (dimension,)
        if dimension:
            assert mask.min() >= 0 and mask.max() < modulus


class TestPairwiseDelta:
    def test_signs_cancel(self):
        plus = pairwise_delta(b"shared", 128, 2**12, sign=1)
        minus = pairwise_delta(b"shared", 128, 2**12, sign=-1)
        np.testing.assert_array_equal(np.mod(plus + minus, 2**12), 0)

    def test_invalid_sign_rejected(self):
        with pytest.raises(ConfigurationError, match="sign"):
            pairwise_delta(b"s", 4, 256, sign=0)

    def test_positive_delta_is_raw_mask(self):
        np.testing.assert_array_equal(
            pairwise_delta(b"s", 16, 256, sign=1), expand_mask(b"s", 16, 256)
        )


class TestGoldenVectors:
    """Frozen expansions captured from the pre-kernel seed implementation.

    These pin the SHA-256 counter-mode backend bit-for-bit: any change
    to the counter encoding, word order, masking, or rejection sampling
    breaks dropout recovery against recorded protocol transcripts.
    Covers the power-of-two fast path, the general-modulus rejection
    path (including a modulus with ~25% rejection probability), and the
    degenerate dimensions.
    """

    GOLDEN = {
        (b"golden-seed", 8, 2**16):
            "99760000000000009333000000000000993100000000000015bc000000000000"
            "2fae000000000000bb870000000000004bce0000000000002cf4000000000000",
        (b"golden-seed", 17, 2**16):
            "99760000000000009333000000000000993100000000000015bc000000000000"
            "2fae000000000000bb870000000000004bce0000000000002cf4000000000000"
            "c6f70000000000009501000000000000633b000000000000f122000000000000"
            "87a6000000000000c6b4000000000000c0fe0000000000006a30000000000000"
            "18f2000000000000",
        (b"\x00" * 32, 8, 2**61):
            "2c34ce1df23b830c5abf2a7f6437cc03d3067ed509ff25111df6b11b582b510b"
            "19ea44be89eece0fd4ec7482049f470a11af19384bffb30a88e77b3b1dd54c19",
        (b"golden-seed", 8, 1000):
            "a103000000000000830200000000000029000000000000009d00000000000000"
            "af0000000000000033030000000000001300000000000000c401000000000000",
        (b"\xffEdge", 13, 3):
            "0200000000000000010000000000000000000000000000000100000000000000"
            "0000000000000000010000000000000002000000000000000200000000000000"
            "0000000000000000020000000000000000000000000000000100000000000000"
            "0100000000000000",
        (b"golden-seed", 5, 2):
            "0100000000000000010000000000000001000000000000000100000000000000"
            "0100000000000000",
        (b"reject-heavy", 9, 2**62 + 11):
            "3df73f4276b5b13f0aa9684b6cca392a17f52aed394e612de5280b2731fb3733"
            "cfa76c88937c23022ae5755da82c8d1d68dbc91c796496381fe64d5dc2af6b32"
            "8147eb039cc56e00",
    }

    @pytest.mark.parametrize(
        "seed,dimension,modulus", sorted(GOLDEN, key=repr)
    )
    def test_expand_mask_matches_golden(self, seed, dimension, modulus):
        expected = np.frombuffer(
            bytes.fromhex(self.GOLDEN[(seed, dimension, modulus)]),
            dtype="<u8",
        ).astype(np.int64)
        np.testing.assert_array_equal(
            expand_mask(seed, dimension, modulus, prg="sha256-ctr"), expected
        )

    @pytest.mark.parametrize(
        "seed,dimension,modulus", sorted(GOLDEN, key=repr)
    )
    def test_reference_implementation_matches_golden(
        self, seed, dimension, modulus
    ):
        """The retained scalar path and the goldens agree forever."""
        expected = np.frombuffer(
            bytes.fromhex(self.GOLDEN[(seed, dimension, modulus)]),
            dtype="<u8",
        ).astype(np.int64)
        np.testing.assert_array_equal(
            expand_mask_reference(seed, dimension, modulus), expected
        )

    @pytest.mark.parametrize(
        "seed,dimension,modulus", sorted(GOLDEN, key=repr)
    )
    def test_kernel_backend_matches_golden(self, seed, dimension, modulus):
        expected = np.frombuffer(
            bytes.fromhex(self.GOLDEN[(seed, dimension, modulus)]),
            dtype="<u8",
        ).astype(np.int64)
        np.testing.assert_array_equal(
            Sha256CounterPrg().expand(seed, dimension, modulus), expected
        )


class TestKernelReferenceEquivalence:
    """Vectorised backend == retained scalar reference, everywhere."""

    @given(
        modulus=st.integers(min_value=2, max_value=2**20),
        dimension=st.integers(min_value=0, max_value=200),
        seed=st.binary(min_size=0, max_size=48),
    )
    @settings(max_examples=60, deadline=None)
    def test_expand_equivalence_property(self, modulus, dimension, seed):
        np.testing.assert_array_equal(
            expand_mask(seed, dimension, modulus, prg="sha256-ctr"),
            expand_mask_reference(seed, dimension, modulus),
        )

    def test_batch_rows_equal_single_expansions(self):
        prg = Sha256CounterPrg()
        seeds = [bytes([i]) * 32 for i in range(12)] + [b"", b"\x00"]
        for modulus in (2**16, 1000):
            batch = prg.expand_batch(seeds, 40, modulus)
            for row, seed in enumerate(seeds):
                np.testing.assert_array_equal(
                    batch[row], expand_mask_reference(seed, 40, modulus)
                )

    def test_batch_caching_is_transparent(self):
        prg = Sha256CounterPrg()
        seeds = [b"cached-seed" for _ in range(3)]
        first = prg.expand_batch(seeds, 16, 2**16)
        second = prg.expand_batch(seeds, 16, 2**16)
        np.testing.assert_array_equal(first, second)
        # Mutating a returned row must not poison later expansions.
        first[0, :] = -1
        np.testing.assert_array_equal(
            prg.expand(b"cached-seed", 16, 2**16), second[0]
        )


class TestShake256Backend:
    def test_deterministic_per_seed(self):
        prg = Shake256Prg()
        np.testing.assert_array_equal(
            prg.expand(b"seed", 128, 2**16), prg.expand(b"seed", 128, 2**16)
        )

    def test_distinct_seeds_differ(self):
        prg = Shake256Prg()
        assert not np.array_equal(
            prg.expand(b"seed-a", 64, 2**16), prg.expand(b"seed-b", 64, 2**16)
        )

    def test_prefix_stability(self):
        prg = Shake256Prg()
        np.testing.assert_array_equal(
            prg.expand(b"s", 10, 2**20), prg.expand(b"s", 50, 2**20)[:10]
        )

    def test_range_general_modulus(self):
        mask = Shake256Prg().expand(b"x", 2000, 1000)
        assert mask.min() >= 0 and mask.max() < 1000

    def test_uniformity(self):
        mask = Shake256Prg().expand(b"uniformity", 200_000, 8)
        counts = np.bincount(mask, minlength=8)
        expected = len(mask) / 8
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 30

    def test_not_bit_compatible_with_sha_backend(self):
        # Different suites really are different streams.
        assert not np.array_equal(
            Shake256Prg().expand(b"seed", 64, 2**16),
            Sha256CounterPrg().expand(b"seed", 64, 2**16),
        )


class TestMaskPrgRegistry:
    def test_default_is_shake256(self):
        assert get_mask_prg(None) is DEFAULT_MASK_PRG
        assert DEFAULT_MASK_PRG.name == "shake256"
        assert isinstance(DEFAULT_MASK_PRG, Shake256Prg)

    def test_lookup_by_name(self):
        assert sorted(MASK_PRGS) == ["sha256-ctr", "shake256"]
        assert isinstance(get_mask_prg("shake256"), Shake256Prg)
        assert isinstance(get_mask_prg("sha256-ctr"), Sha256CounterPrg)

    def test_instance_passthrough(self):
        prg = Sha256CounterPrg()
        assert get_mask_prg(prg) is prg

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown mask PRG"):
            get_mask_prg("md5-ctr")

    def test_removed_philox_backend_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_mask_prg("philox")
        assert "['sha256-ctr', 'shake256']" in str(excinfo.value)

    def test_expand_mask_accepts_backend_argument(self):
        np.testing.assert_array_equal(
            expand_mask(b"s", 32, 2**12, prg="sha256-ctr"),
            Sha256CounterPrg().expand(b"s", 32, 2**12),
        )


class TestAgreementAcceleration:
    def test_own_public_does_not_change_derived_key(self, rng):
        alice = generate_keypair(rng, TOY_GROUP)
        bob = generate_keypair(rng, TOY_GROUP)
        plain = agree(alice.private, bob.public, TOY_GROUP)
        accelerated = agree(
            alice.private, bob.public, TOY_GROUP, own_public=alice.public
        )
        mirrored = agree(
            bob.private, alice.public, TOY_GROUP, own_public=bob.public
        )
        assert plain == accelerated == mirrored

    def test_agree_batch_matches_scalar(self, rng):
        alice = generate_keypair(rng, TOY_GROUP)
        peers = [generate_keypair(rng, TOY_GROUP) for _ in range(20)]
        batched = agree_batch(
            alice.private,
            [p.public for p in peers],
            TOY_GROUP,
            own_public=alice.public,
        )
        assert batched == [
            agree(alice.private, p.public, TOY_GROUP) for p in peers
        ]

    @pytest.mark.parametrize(
        "lanes", [1, SCALAR_BATCH_MAX, SCALAR_BATCH_MAX + 1, 63, 127]
    )
    @pytest.mark.parametrize("memoised", [False, True])
    def test_same_keys_on_both_sides_of_the_crossover(
        self, rng, lanes, memoised
    ):
        # At most SCALAR_BATCH_MAX missing peers go through scalar pow,
        # more through the vectorised sweep: the bytes must not tell.
        alice = generate_keypair(rng, TOY_GROUP)
        peers = [generate_keypair(rng, TOY_GROUP).public for _ in range(lanes)]
        forget_agreements(TOY_GROUP)
        batched = agree_batch(
            alice.private,
            peers,
            TOY_GROUP,
            own_public=alice.public if memoised else None,
        )
        assert len(_group_cache(TOY_GROUP)) == (lanes if memoised else 0)
        assert batched == [
            agree(alice.private, peer, TOY_GROUP) for peer in peers
        ]

    def test_warm_rule_counts_pairs_not_parties(self):
        def advertised(count):
            clients = [
                BonawitzClient(
                    index,
                    np.zeros(4, dtype=np.int64),
                    2**16,
                    2,
                    np.random.default_rng(index),
                    TOY_GROUP,
                )
                for index in range(1, count + 1)
            ]
            for client in clients:
                client.advertise_keys()
            return clients

        # A 32-client leaf or cohort is a 496-lane sweep per key set —
        # far above the crossover, though its 31 peers per client are
        # below it.
        assert warm_pairwise_agreements(advertised(32)) == 2 * 496
        assert len(_group_cache(TOY_GROUP)) == 2 * 496
        # A composition round's handful of parties stays on demand, and
        # the previous round's entries are gone either way.
        assert warm_pairwise_agreements(advertised(4)) == 0
        assert len(_group_cache(TOY_GROUP)) == 0

    def test_agree_batch_validates_publics(self, rng):
        alice = generate_keypair(rng, TOY_GROUP)
        with pytest.raises(ConfigurationError, match="peer public"):
            agree_batch(alice.private, [1], TOY_GROUP)

    def test_warm_cache_preserves_agreement_bytes(self, rng):
        pairs = {i: generate_keypair(rng, TOY_GROUP) for i in range(1, 7)}
        warmed = warm_agreement_cache(
            {i: kp.private for i, kp in pairs.items()},
            {i: kp.public for i, kp in pairs.items()},
            TOY_GROUP,
        )
        assert warmed == 6 * 5 // 2
        for i in pairs:
            for j in pairs:
                if i == j:
                    continue
                assert agree(
                    pairs[i].private,
                    pairs[j].public,
                    TOY_GROUP,
                    own_public=pairs[i].public,
                ) == agree(pairs[i].private, pairs[j].public, TOY_GROUP)
