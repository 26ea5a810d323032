"""The mask PRG: SHAKE-256 (``"shake256"``), the one suite rounds speak.

The SHAKE-256 goldens here are computed straight from
``hashlib.shake_256`` with Python integers — not through
``repro.secagg.kernels`` — so they pin how the stream is read (word
width per modulus, byte order, masking, rejection) independently of the
code under test; two frozen literals pin the reference itself.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.secagg.bonawitz import (
    ROUND_MASKED_INPUT,
    ROUND_SHARE_KEYS,
    ROUND_UNMASK,
    run_bonawitz,
)
from repro.secagg.kernels import MaskPrg, sum_signed_masks
from repro.simulation import AsyncSecAggRound, ClientPlan, SimulatedClock

#: One power-of-two modulus per word width and per width boundary.
POWER_OF_TWO_MODULI = [2, 2**8, 2**12, 2**16, 2**17, 2**32, 2**33, 2**61]
GENERAL_MODULI = [1001, 2**62 + 11]  # small odd; ~25 % of words rejected


class EvictingMemoPrg(MaskPrg):
    """A memo too small for one row: every batch clears it first."""

    CACHE_BUDGET_BYTES = 1


#: The stream may not depend on whether the memo keeps rows or drops them.
MEMOS = [MaskPrg, EvictingMemoPrg]


def shake_reference(seed: bytes, dimension: int, modulus: int) -> list[int]:
    """``MaskPrg.expand`` restated over Python ints and hashlib."""
    if modulus & (modulus - 1) == 0:
        bits = modulus.bit_length() - 1
        width = next(w for w in (1, 2, 4, 8) if 8 * w >= bits)
        stream = hashlib.shake_256(seed).digest(dimension * width)
        return [
            int.from_bytes(stream[i : i + width], "little") & (modulus - 1)
            for i in range(0, len(stream), width)
        ]
    limit = 2**64 - 2**64 % modulus
    # First ``dimension`` accepted 64-bit words of the stream; eight
    # times the need is never short at these rejection rates.
    stream = hashlib.shake_256(seed).digest(8 * (8 * dimension + 64))
    words = (
        int.from_bytes(stream[i : i + 8], "little")
        for i in range(0, len(stream), 8)
    )
    accepted = [word % modulus for word in words if word < limit]
    assert len(accepted) >= dimension
    return accepted[:dimension]


def signed_sum_reference(prg, seeds, signs, dimension, modulus) -> list[int]:
    total = [0] * dimension
    for seed, sign in zip(seeds, signs):
        row = prg.expand(seed, dimension, modulus).tolist()
        total = [(t + sign * int(v)) % modulus for t, v in zip(total, row)]
    return total


#: ``hashlib.shake_256(b"golden-seed").digest(16)`` cut into 2-byte
#: words, and the first four 64-bit words of that stream mod 1001 (all
#: accepted), captured once with hashlib alone.
FROZEN_STREAM_U16 = "ccf6 01d1 3c54 087b dd8d fa38 3c27 2068".split()
FROZEN_MOD_1001 = [767, 294, 788, 163]


class TestShake256Goldens:
    @pytest.mark.parametrize("modulus", POWER_OF_TWO_MODULI + GENERAL_MODULI)
    @pytest.mark.parametrize("dimension", [0, 1, 9, 70])
    def test_expand_matches_hashlib(self, modulus, dimension):
        seed = b"golden-seed"
        mask = MaskPrg().expand(seed, dimension, modulus)
        assert mask.dtype == np.int64 and mask.shape == (dimension,)
        assert mask.tolist() == shake_reference(seed, dimension, modulus)

    @pytest.mark.parametrize("modulus", POWER_OF_TWO_MODULI + GENERAL_MODULI)
    def test_batch_rows_match_hashlib(self, modulus):
        seeds = [bytes([i]) * 32 for i in range(7)] + [b"", b"\x00"]
        batch = MaskPrg().expand_batch(seeds, 33, modulus)
        assert batch.dtype == np.int64 and batch.shape == (len(seeds), 33)
        for row, seed in zip(batch, seeds):
            assert row.tolist() == shake_reference(seed, 33, modulus)

    def test_frozen_literals(self):
        assert MaskPrg().expand(b"golden-seed", 8, 2**16).tolist() == [
            int.from_bytes(bytes.fromhex(word), "little")
            for word in FROZEN_STREAM_U16
        ]
        assert hashlib.shake_256(b"golden-seed").digest(16).hex() == "".join(
            FROZEN_STREAM_U16
        )
        assert (
            MaskPrg().expand(b"golden-seed", 4, 1001).tolist()
            == FROZEN_MOD_1001
        )

    def test_empty_batch_and_zero_dimension(self):
        prg = MaskPrg()
        for modulus in (2**16, 1001):
            assert prg.expand_batch([], 5, modulus).shape == (0, 5)
            pair = prg.expand_batch([b"a", b"b"], 0, modulus)
            assert pair.shape == (2, 0)
            assert prg.expand(b"a", 0, modulus).shape == (0,)


class TestPrefixStability:
    @pytest.mark.parametrize("memo", MEMOS)
    @pytest.mark.parametrize("modulus", POWER_OF_TWO_MODULI + GENERAL_MODULI)
    def test_longer_expansion_extends_shorter(self, memo, modulus):
        prg = memo()
        for dimension, extra in [(0, 3), (1, 1), (10, 40), (37, 200)]:
            np.testing.assert_array_equal(
                prg.expand(b"s", dimension + extra, modulus)[:dimension],
                prg.expand(b"s", dimension, modulus),
            )


class TestModulusBounds:
    """Moduli the int64 contract cannot hold are refused, not wrapped."""

    @pytest.mark.parametrize("memo", MEMOS)
    def test_modulus_above_2_63_rejected(self, memo):
        prg = memo()
        for modulus in (2**63 + 1, 2**64, 2**64 + 7):
            with pytest.raises(ConfigurationError, match="modulus"):
                prg.expand(b"a", 3, modulus)
            with pytest.raises(ConfigurationError, match="modulus"):
                prg.expand_batch([b"a"], 3, modulus)
            with pytest.raises(ConfigurationError, match="modulus"):
                sum_signed_masks([b"a", b"b"], [1, -1], 3, modulus, prg)

    @pytest.mark.parametrize("memo", MEMOS)
    @pytest.mark.parametrize(
        "modulus", [2**62, 2**63, 2**63 - 25, 2**62 + 11, 2**61 + 1]
    )
    def test_huge_moduli_are_exact(self, memo, modulus):
        prg = memo()
        seeds = [bytes([i]) * 32 for i in range(9)]
        signs = [1, -1, -1, 1, 1, -1, 1, -1, -1]
        masks = prg.expand_batch(seeds, 6, modulus)
        assert masks.min() >= 0 and int(masks.max()) < modulus
        total = sum_signed_masks(seeds, signs, 6, modulus, prg)
        assert total.dtype == np.int64
        assert total.tolist() == signed_sum_reference(
            prg, seeds, signs, 6, modulus
        )


class TestSeedTypes:
    """``expand`` and ``expand_batch`` accept the same bytes-likes."""

    @pytest.mark.parametrize("memo", MEMOS)
    @pytest.mark.parametrize("modulus", [256, 1001])
    def test_bytearray_and_memoryview_seeds(self, memo, modulus):
        prg = memo()
        expected = MaskPrg().expand(b"abc", 4, modulus)
        for seed in (bytearray(b"abc"), memoryview(b"abc")):
            np.testing.assert_array_equal(
                prg.expand(seed, 4, modulus), expected
            )
            np.testing.assert_array_equal(
                prg.expand_batch([seed, b"abc"], 4, modulus),
                np.stack([expected, expected]),
            )
            np.testing.assert_array_equal(
                sum_signed_masks([seed], [1], 4, modulus, prg), expected
            )

    @pytest.mark.parametrize("memo", MEMOS)
    def test_returned_arrays_do_not_alias_the_memo(self, memo):
        prg = memo()
        pristine = MaskPrg().expand(b"seed", 16, 2**16)
        first = prg.expand(b"seed", 16, 2**16)
        first[:] = -1
        batch = prg.expand_batch([b"seed", b"seed"], 16, 2**16)
        batch[:] = -1
        total = sum_signed_masks([b"seed"], [1], 16, 2**16, prg)
        total[:] = -1
        np.testing.assert_array_equal(prg.expand(b"seed", 16, 2**16), pristine)
        np.testing.assert_array_equal(
            sum_signed_masks([b"seed"], [1], 16, 2**16, prg), pristine
        )


class TestSumSignedMasksProperty:
    @given(
        modulus=st.one_of(
            st.integers(min_value=1, max_value=63).map(lambda k: 2**k),
            st.integers(min_value=3, max_value=2**63 - 1),
        ),
        dimension=st.integers(min_value=0, max_value=40),
        masks=st.lists(
            st.tuples(
                st.binary(min_size=0, max_size=40), st.sampled_from([1, -1])
            ),
            min_size=0,
            max_size=12,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_python_int_sum_cold_and_warm(
        self, modulus, dimension, masks
    ):
        seeds = [seed for seed, _ in masks]
        signs = [sign for _, sign in masks]
        prg = MaskPrg()
        expected = signed_sum_reference(
            MaskPrg(), seeds, signs, dimension, modulus
        )
        cold = sum_signed_masks(seeds, signs, dimension, modulus, prg)
        warm = sum_signed_masks(seeds, signs, dimension, modulus, prg)
        assert cold.dtype == np.int64 and cold.shape == (dimension,)
        assert cold.tolist() == expected
        assert warm.tolist() == expected

    def test_memo_budget_eviction_is_transparent(self):
        class TinyMemo(MaskPrg):
            CACHE_BUDGET_BYTES = 100

        prg = TinyMemo()
        seeds = [bytes([i]) * 8 for i in range(20)]
        signs = [1, -1] * 10
        expected = signed_sum_reference(MaskPrg(), seeds, signs, 16, 2**16)
        for _ in range(3):
            assert (
                sum_signed_masks(seeds, signs, 16, 2**16, prg).tolist()
                == expected
            )

    def test_memo_budget_counts_what_it_holds(self):
        # Narrow rows are mostly overhead (16 B of words beside ~300 B
        # of key tuple, seed, array view and dict slot): a budget that
        # counts words alone holds ~18x itself at d = 8.
        budget = 256 * 1024

        class SmallMemo(MaskPrg):
            CACHE_BUDGET_BYTES = budget

        prg = SmallMemo()
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            peak_rows = 0
            for batch in range(400):
                seeds = [
                    hashlib.sha256(bytes([row]) + batch.to_bytes(4, "big"))
                    .digest()
                    for row in range(64)
                ]
                prg.word_rows(seeds, 8, 16)
                del seeds
                if len(prg._memo) < peak_rows:
                    break  # the budget tripped and the memo cleared
                peak_rows = len(prg._memo)
                held = tracemalloc.get_traced_memory()[0] - baseline
                assert held <= 2 * budget, (
                    f"{len(prg._memo)} rows hold {held} B against a "
                    f"{budget} B budget"
                )
            else:
                pytest.fail("the memo never cleared")
        finally:
            tracemalloc.stop()
        assert peak_rows >= budget // 1024  # and it is still a memo

    def test_forget_empties_the_memo_and_its_account(self):
        prg = MaskPrg()
        seeds = [bytes([i]) * 8 for i in range(5)]
        first = prg.expand_batch(seeds, 16, 2**16)
        assert len(prg._memo) == 5
        prg.forget()
        assert len(prg._memo) == 0 and prg._memo_bytes == 0
        np.testing.assert_array_equal(
            prg.expand_batch(seeds, 16, 2**16), first
        )


class TestReleasedSumIsTheSurvivorsSum:
    """Masks cancel, and the instance a round is handed only picks the
    memo it fills: the released sum is the survivors' sum either way."""

    @pytest.mark.parametrize("modulus", [2**16, 2**31 - 1])
    def test_run_bonawitz_with_dropouts(self, modulus):
        inputs = np.random.default_rng(5).integers(
            0, modulus, size=(9, 20), dtype=np.int64
        )
        outcome = run_bonawitz(
            inputs,
            modulus,
            threshold=5,
            rng=np.random.default_rng(42),
            dropouts={2: ROUND_MASKED_INPUT, 7: ROUND_UNMASK},
        )
        assert outcome.included == frozenset(range(1, 10)) - {2}
        np.testing.assert_array_equal(
            outcome.modular_sum,
            np.mod(np.delete(inputs, 1, axis=0).sum(axis=0), modulus),
        )

    @pytest.mark.parametrize("modulus", [2**16, 2**31 - 1])
    def test_async_round_with_dropouts(self, modulus):
        rng = np.random.default_rng(6)
        vectors = {
            u: rng.integers(0, modulus, size=20, dtype=np.int64)
            for u in range(1, 10)
        }
        outcomes = []
        for prg in (None, MaskPrg()):
            clock = SimulatedClock()
            secagg_round = AsyncSecAggRound(
                vectors=vectors,
                modulus=modulus,
                threshold=5,
                clock=clock,
                rng=np.random.default_rng(42),
                plans={
                    3: ClientPlan(drop_phase=ROUND_SHARE_KEYS),
                    4: ClientPlan(drop_phase=ROUND_MASKED_INPUT),
                    8: ClientPlan(drop_phase=ROUND_UNMASK),
                },
                mask_prg=prg,
            )
            outcomes.append(clock.run(secagg_round.run()))
        reference = np.zeros(20, dtype=np.int64)
        for u in outcomes[0].included:
            reference = np.mod(reference + vectors[u], modulus)
        for outcome in outcomes:
            assert outcome.included == outcomes[0].included
            assert 4 not in outcome.included
            np.testing.assert_array_equal(outcome.modular_sum, reference)
