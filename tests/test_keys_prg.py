"""Tests for DH key agreement and the deterministic mask PRG."""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.linalg.modular as modular
import repro.secagg.keys as keys_module
from repro.errors import ConfigurationError
from repro.secagg.kernels import (
    DEFAULT_MASK_PRG,
    MaskPrg,
    get_mask_prg,
    sum_signed_masks,
)
from repro.secagg.bonawitz import (
    BonawitzClient,
    forget_round_memos,
    run_bonawitz,
    warm_pairwise_agreements,
)
from repro.secagg.keys import (
    OAKLEY_GROUP_2_PRIME,
    SCALAR_BATCH_MAX,
    TABLE_POWER_MIN,
    TOY_GROUP,
    DhGroup,
    KeyPair,
    _generator_pow,
    _group_cache,
    _key_tables,
    agree,
    agree_batch,
    forget_agreements,
    generate_keypair,
    warm_agreement_cache,
)
from tests.secagg_reference import memoised_pairs

expand_mask = DEFAULT_MASK_PRG.expand


def expand_mask_reference(seed: bytes, dimension: int, modulus: int):
    """``MaskPrg.expand`` restated one word at a time over Python ints."""
    if modulus & (modulus - 1) == 0:
        bits = modulus.bit_length() - 1
        width = next(w for w in (1, 2, 4, 8) if 8 * w >= bits)
        stream = hashlib.shake_256(seed).digest(dimension * width)
        words = [
            int.from_bytes(stream[i * width : (i + 1) * width], "little")
            for i in range(dimension)
        ]
        return np.array([w % modulus for w in words], dtype=np.int64)
    limit = 2**64 - 2**64 % modulus
    accepted: list[int] = []
    stream, position = b"", 0
    while len(accepted) < dimension:
        if position + 8 > len(stream):
            # SHAKE is an XOF: a longer digest extends the shorter one.
            stream = hashlib.shake_256(seed).digest(2 * len(stream) + 64)
        word = int.from_bytes(stream[position : position + 8], "little")
        position += 8
        if word < limit:
            accepted.append(word % modulus)
    return np.array(accepted, dtype=np.int64)


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
    """A pairwise mask enters one endpoint with ``+`` and the other with
    ``-``; :func:`sum_signed_masks` is where the sign is applied."""

    def test_signs_cancel(self):
        total = sum_signed_masks([b"shared", b"shared"], [1, -1], 128, 2**12)
        np.testing.assert_array_equal(total, 0)
        general = sum_signed_masks([b"shared", b"shared"], [-1, 1], 64, 1001)
        np.testing.assert_array_equal(general, 0)

    def test_invalid_sign_rejected(self):
        with pytest.raises(ConfigurationError, match="sign"):
            sum_signed_masks([b"s"], [0], 4, 256)

    def test_positive_delta_is_raw_mask(self):
        np.testing.assert_array_equal(
            sum_signed_masks([b"s"], [1], 16, 256), expand_mask(b"s", 16, 256)
        )
        np.testing.assert_array_equal(
            sum_signed_masks([b"s"], [-1], 16, 256),
            np.mod(-expand_mask(b"s", 16, 256), 256),
        )


class TestGoldenVectors:
    """Frozen SHAKE-256 expansions, as little-endian uint64 hex.

    Any change to the word width per modulus, byte order, masking or
    rejection sampling breaks dropout recovery against recorded round
    transcripts.  Covers the power-of-two path at 1-, 2- and 8-byte
    words, the general-modulus rejection path (including a modulus
    with ~25% rejection probability), and the degenerate moduli 2 and 3.
    """

    GOLDEN = {
        (b"golden-seed", 8, 2**16):
            "ccf600000000000001d10000000000003c54000000000000087b000000000000"
            "dd8d000000000000fa380000000000003c270000000000002068000000000000",
        (b"golden-seed", 17, 2**16):
            "ccf600000000000001d10000000000003c54000000000000087b000000000000"
            "dd8d000000000000fa380000000000003c270000000000002068000000000000"
            "1de500000000000037ec0000000000009c21000000000000e87d000000000000"
            "b7d2000000000000adb30000000000008bf400000000000015d9000000000000"
            "e761000000000000",
        (b"\x00" * 32, 8, 2**61):
            "f5977c8283546a03723bc31d2619120f11db4658643336141df81757d5ad3002"
            "221e124311ec7f1181568de7938df805d894f5fded465001a04e260a49482c15",
        (b"golden-seed", 8, 1000):
            "b40000000000000005030000000000005500000000000000c702000000000000"
            "0f020000000000003f03000000000000c4020000000000001d00000000000000",
        (b"\xffEdge", 13, 3):
            "0100000000000000020000000000000002000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000200000000000000"
            "0200000000000000000000000000000002000000000000000200000000000000"
            "0100000000000000",
        (b"golden-seed", 5, 2):
            "0000000000000000000000000000000001000000000000000100000000000000"
            "0000000000000000",
        (b"reject-heavy", 9, 2**62 + 11):
            "2fd2fcf7e977ce026ffcdb95d5c7a52f386f57e615b576340b03a122e4054c3d"
            "5f112be3ec3115183a9cd0af577cd301a0c690a1a2fb55063377231d9e9c173b"
            "d9080a98c3f9282d",
    }

    def golden(self, seed, dimension, modulus):
        return np.frombuffer(
            bytes.fromhex(self.GOLDEN[(seed, dimension, modulus)]),
            dtype="<u8",
        ).astype(np.int64)

    @pytest.mark.parametrize(
        "seed,dimension,modulus", sorted(GOLDEN, key=repr)
    )
    def test_expand_mask_matches_golden(self, seed, dimension, modulus):
        np.testing.assert_array_equal(
            expand_mask(seed, dimension, modulus),
            self.golden(seed, dimension, modulus),
        )

    @pytest.mark.parametrize(
        "seed,dimension,modulus", sorted(GOLDEN, key=repr)
    )
    def test_reference_implementation_matches_golden(
        self, seed, dimension, modulus
    ):
        """The word-at-a-time restatement and the goldens agree forever."""
        np.testing.assert_array_equal(
            expand_mask_reference(seed, dimension, modulus),
            self.golden(seed, dimension, modulus),
        )

    @pytest.mark.parametrize(
        "seed,dimension,modulus", sorted(GOLDEN, key=repr)
    )
    def test_kernel_backend_matches_golden(self, seed, dimension, modulus):
        """The signed-sum kernel's raw-word path reproduces a lone mask."""
        np.testing.assert_array_equal(
            sum_signed_masks([seed], [1], dimension, modulus, MaskPrg()),
            self.golden(seed, dimension, modulus),
        )


class TestKernelReferenceEquivalence:
    """Vectorised expansion == word-at-a-time reference, everywhere."""

    @given(
        modulus=st.integers(min_value=2, max_value=2**20),
        dimension=st.integers(min_value=0, max_value=200),
        seed=st.binary(min_size=0, max_size=48),
    )
    @settings(max_examples=60, deadline=None)
    def test_expand_equivalence_property(self, modulus, dimension, seed):
        np.testing.assert_array_equal(
            expand_mask(seed, dimension, modulus),
            expand_mask_reference(seed, dimension, modulus),
        )

    def test_batch_rows_equal_single_expansions(self):
        prg = MaskPrg()
        seeds = [bytes([i]) * 32 for i in range(12)] + [b"", b"\x00"]
        for modulus in (2**16, 1000):
            batch = prg.expand_batch(seeds, 40, modulus)
            for row, seed in enumerate(seeds):
                np.testing.assert_array_equal(
                    batch[row], expand_mask_reference(seed, 40, modulus)
                )

    def test_batch_caching_is_transparent(self):
        prg = MaskPrg()
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
        prg = MaskPrg()
        np.testing.assert_array_equal(
            prg.expand(b"seed", 128, 2**16), prg.expand(b"seed", 128, 2**16)
        )

    def test_distinct_seeds_differ(self):
        prg = MaskPrg()
        assert not np.array_equal(
            prg.expand(b"seed-a", 64, 2**16), prg.expand(b"seed-b", 64, 2**16)
        )

    def test_prefix_stability(self):
        prg = MaskPrg()
        np.testing.assert_array_equal(
            prg.expand(b"s", 10, 2**20), prg.expand(b"s", 50, 2**20)[:10]
        )

    def test_range_general_modulus(self):
        mask = MaskPrg().expand(b"x", 2000, 1000)
        assert mask.min() >= 0 and mask.max() < 1000

    def test_uniformity(self):
        mask = MaskPrg().expand(b"uniformity", 200_000, 8)
        counts = np.bincount(mask, minlength=8)
        expected = len(mask) / 8
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 30


class TestMaskPrgRegistry:
    def test_default_is_shake256(self):
        assert get_mask_prg(None) is DEFAULT_MASK_PRG
        assert DEFAULT_MASK_PRG.name == "shake256"
        assert isinstance(DEFAULT_MASK_PRG, MaskPrg)

    def test_instance_passthrough(self):
        prg = MaskPrg()
        assert get_mask_prg(prg) is prg

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown mask PRG"):
            get_mask_prg("md5-ctr")

    @pytest.mark.parametrize("name", ["philox", "sha256-ctr", "shake256"])
    def test_removed_suite_names_rejected(self, name):
        # No name selects a suite, not even the one rounds speak: a
        # caller still passing one fails here, not deep inside a round.
        with pytest.raises(ConfigurationError) as excinfo:
            get_mask_prg(name)
        assert repr(name) in str(excinfo.value)
        assert "only 'shake256'" in str(excinfo.value)


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
    @pytest.mark.parametrize("held", [False, True], ids=["built", "held"])
    def test_same_keys_on_both_sides_of_the_crossover(
        self, rng, lanes, memoised, held
    ):
        # At most SCALAR_BATCH_MAX table-less peers go through scalar
        # pow, more through tables built on the spot, and peers whose
        # tables are already held through those: the bytes must not tell.
        alice = generate_keypair(rng, TOY_GROUP)
        peers = [generate_keypair(rng, TOY_GROUP).public for _ in range(lanes)]
        forget_agreements(TOY_GROUP)
        if held:
            _key_tables(TOY_GROUP).add(peers)
        batched = agree_batch(
            alice.private,
            peers,
            TOY_GROUP,
            own_public=alice.public if memoised else None,
        )
        assert memoised_pairs(TOY_GROUP) == (lanes if memoised else 0)
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
        assert memoised_pairs(TOY_GROUP) == 2 * 496
        # A composition round's handful of parties stays on demand, and
        # the previous round's entries are gone either way.
        assert warm_pairwise_agreements(advertised(4)) == 0
        assert memoised_pairs(TOY_GROUP) == 0
        # The measured cut-off: six parties (15 pairs) stay on demand,
        # seven (21 pairs) take the table sweeps.
        assert warm_pairwise_agreements(advertised(6)) == 0
        assert warm_pairwise_agreements(advertised(7)) == 2 * 21
        assert memoised_pairs(TOY_GROUP) == 2 * 21

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


def dh_key(peer: int, private: int, group: DhGroup = TOY_GROUP) -> bytes:
    """The oracle: SHA-256 of ``peer^private mod p``, big-endian at the
    prime's byte width."""
    width = (group.prime.bit_length() + 7) // 8
    return hashlib.sha256(
        pow(peer, private, group.prime).to_bytes(width, "big")
    ).digest()


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of the agreement kernels: table builds, evaluations from
    held tables, and square-and-multiply sweeps."""
    calls = Counter()

    def counted(module, name):
        kernel = getattr(module, name, None)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper, raising=False)

    counted(keys_module, "window_tables")
    counted(keys_module, "window_pow")
    # A sweep through either namespace counts, re-imported or not.
    counted(modular, "pow_mod")
    counted(keys_module, "pow_mod")
    return calls


class TestKeyTables:
    """Agreement from the roster keys' window tables."""

    @given(
        private=st.integers(min_value=2, max_value=TOY_GROUP.prime - 2),
        peers=st.lists(
            st.integers(min_value=2, max_value=TOY_GROUP.prime - 1),
            min_size=1,
            max_size=130,
        ),
        held=st.floats(min_value=0, max_value=1),
        own_public=st.none()
        | st.integers(min_value=2, max_value=TOY_GROUP.prime - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_agree_batch_equals_the_hash_of_pow(
        self, private, peers, held, own_public
    ):
        forget_agreements(TOY_GROUP)
        tabled = list(dict.fromkeys(peers[: round(held * len(peers))]))
        if tabled:
            _key_tables(TOY_GROUP).add(tabled)
        assert agree_batch(private, peers, TOY_GROUP, own_public) == [
            dh_key(peer, private) for peer in peers
        ]

    def test_forget_round_memos_drops_the_tables(self, rng):
        keys = [generate_keypair(rng, TOY_GROUP) for _ in range(40)]
        forget_agreements(TOY_GROUP)
        agree_batch(
            keys[0].private,
            [key.public for key in keys[1:]],
            TOY_GROUP,
            own_public=keys[0].public,
        )
        tables = _key_tables(TOY_GROUP)
        assert sorted(tables.lanes) == sorted(key.public for key in keys)
        forget_round_memos(TOY_GROUP)
        assert tables.lanes == {} and tables.stack is None
        assert memoised_pairs(TOY_GROUP) == 0

    def test_table_memo_bound_holds(self, rng, monkeypatch):
        monkeypatch.setattr(keys_module, "_TABLE_CACHE_MAX", 50)
        forget_agreements(TOY_GROUP)
        tables = _key_tables(TOY_GROUP)
        held = []
        for _ in range(6):
            keys = [generate_keypair(rng, TOY_GROUP) for _ in range(21)]
            peers = [key.public for key in keys[1:]]
            assert agree_batch(
                keys[0].private, peers, TOY_GROUP, own_public=keys[0].public
            ) == [dh_key(peer, keys[0].private) for peer in peers]
            held.append(len(tables.lanes))
            assert len(tables.stack) == len(tables.lanes)
        # 21 keys a batch: the third would pass 50, so the memo empties
        # and starts again from that batch.
        assert held == [21, 42, 21, 42, 21, 42]
        # A batch that mixes held keys with enough new ones to pass the
        # bound gets every table it needs from the rebuilt memo.
        keys = [generate_keypair(rng, TOY_GROUP) for _ in range(21)]
        peers = list(tables.lanes)[:10] + [key.public for key in keys[1:]]
        assert agree_batch(
            keys[0].private, peers, TOY_GROUP, own_public=keys[0].public
        ) == [dh_key(peer, keys[0].private) for peer in peers]
        assert len(tables.lanes) == len(tables.stack) == 31
        forget_agreements(TOY_GROUP)

    def test_swarm_sequence_builds_once_per_key_set(self, kernel_calls):
        # 64 clients in one process, in the order a socket round runs
        # them: every client's channel-key batch, then every client's
        # mask-key batch, each with its own public key.
        rng = np.random.default_rng(64)
        key_sets = [
            [generate_keypair(rng, TOY_GROUP) for _ in range(64)]
            for _ in ("channel", "mask")
        ]
        forget_round_memos(TOY_GROUP)
        for keys in key_sets:
            publics = [key.public for key in keys]
            for key in keys:
                peers = [peer for peer in publics if peer != key.public]
                assert agree_batch(
                    key.private, peers, TOY_GROUP, own_public=key.public
                ) == [dh_key(peer, key.private) for peer in peers]
        # The first client's 63 misses build the roster's tables; every
        # later client evaluates once while it has TABLE_POWER_MIN
        # misses or more (63 down to 5), and the last four (4 down to 1
        # misses) take scalar pow: 59 evaluations a key set, where
        # evaluating at any lane count made 63.
        assert TABLE_POWER_MIN == 5
        assert kernel_calls == Counter(window_tables=2, window_pow=2 * 59)
        forget_round_memos(TOY_GROUP)

    def test_five_party_round_stays_on_scalar_pow(self, kernel_calls):
        rng = np.random.default_rng(5)
        inputs = rng.integers(0, 2**16, size=(5, 8))
        outcome = run_bonawitz(
            inputs, 2**16, threshold=3, rng=rng, dropouts={5: 2}
        )
        assert outcome.included == frozenset(range(1, 5))
        assert outcome.modular_sum.tolist() == (
            inputs[:4].sum(axis=0) % 2**16
        ).tolist()
        assert kernel_calls == Counter()


#: The three group shapes the tables serve: the Mersenne-fold kernels,
#: the generic ``mul_mod`` path, and a group beyond the limb split
#: (scalar table only).
MERSENNE_31_GROUP = DhGroup(prime=(1 << 31) - 1, generator=7)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestGeneratorTables:
    """Fixed-base exponentiation from the generator's window tables,
    pinned to ``pow``."""

    @pytest.mark.parametrize(
        "group",
        [TOY_GROUP, MERSENNE_31_GROUP, DhGroup()],
        ids=["toy", "2^31-1", "oakley-2"],
    )
    def test_scalar_table_equals_pow(self, group, rng):
        p, g = group.prime, group.generator
        random = generate_keypair(rng, group).private
        for private in (2, p - 2, random):
            assert _generator_pow(group, private) == pow(g, private, p)
        # Exponents outside [2, p - 2] reduce mod p - 1, as pow does.
        for exponent in (0, 1, p - 1, p, 3 * p + 5, -1, -random):
            assert _generator_pow(group, exponent) == pow(g, exponent, p)
        keys = generate_keypair(rng, group)
        assert keys.public == pow(g, keys.private, p)

    @pytest.mark.parametrize(
        "group", [TOY_GROUP, MERSENNE_31_GROUP], ids=["toy", "2^31-1"]
    )
    @pytest.mark.parametrize("n", [2, 11, 32, 128])
    def test_warm_sweep_equals_per_pair_agree(self, group, n):
        rng = np.random.default_rng(n)
        keys = [generate_keypair(rng, group) for _ in range(n)]
        forget_agreements(group)
        warmed = warm_agreement_cache(
            {u: k.private for u, k in enumerate(keys)},
            {u: k.public for u, k in enumerate(keys)},
            group,
        )
        assert warmed == memoised_pairs(group) == n * (n - 1) // 2
        memo = _group_cache(group)
        assert sorted(memo) == sorted(k.public for k in keys)
        for u in keys:
            row = memo[u.public]
            assert sorted(row) == sorted(
                v.public for v in keys if v is not u
            )
            for v in keys:
                if v is not u:
                    assert row[v.public] == agree(u.private, v.public, group)
        forget_agreements(group)

    def test_swapped_public_key_is_refused(self, rng):
        keys = [generate_keypair(rng, TOY_GROUP) for _ in range(6)]
        publics = {u: k.public for u, k in enumerate(keys)}
        publics[2], publics[4] = publics[4], publics[2]
        forget_agreements(TOY_GROUP)
        with pytest.raises(ConfigurationError, match=r"\[2, 4\] are not"):
            warm_agreement_cache(
                {u: k.private for u, k in enumerate(keys)},
                publics,
                TOY_GROUP,
            )
        assert memoised_pairs(TOY_GROUP) == 0
