"""Tests for the modular wraparound codec (repro.linalg.modular)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.linalg.modular import (
    _mul_mod_m61,
    _sqr_mod_m61,
    decode_centered,
    encode_mod,
    fixed_base_pow,
    fixed_base_table,
    horner_mod,
    inv_mod,
    matmul_mod,
    mul_mod,
    mul_wide,
    pow_mod,
    sum_mod,
    window_pow,
    window_tables,
    wraps_around,
)
from repro.secagg.field import MERSENNE_61


class TestEncodeMod:
    def test_range(self):
        values = np.array([-300, -1, 0, 1, 300])
        encoded = encode_mod(values, 256)
        assert encoded.min() >= 0
        assert encoded.max() < 256

    def test_negative_values_wrap(self):
        assert np.array_equal(encode_mod(np.array([-1]), 256), [255])
        assert np.array_equal(encode_mod(np.array([-128]), 256), [128])

    def test_odd_modulus_rejected(self):
        with pytest.raises(ConfigurationError):
            encode_mod(np.array([1]), 7)


class TestDecodeCentered:
    def test_positive_half_unchanged(self):
        residues = np.arange(0, 128)
        assert np.array_equal(decode_centered(residues, 256), residues)

    def test_negative_half_shifts(self):
        # Values m/2..m-1 map to -m/2..-1 (line 1 of Algorithm 6).
        residues = np.arange(128, 256)
        decoded = decode_centered(residues, 256)
        assert np.array_equal(decoded, residues - 256)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            decode_centered(np.array([256]), 256)
        with pytest.raises(ConfigurationError):
            decode_centered(np.array([-1]), 256)

    def test_empty_array(self):
        assert decode_centered(np.array([], dtype=np.int64), 256).size == 0


class TestRoundtrip:
    def test_exact_recovery_in_centered_range(self):
        values = np.arange(-128, 128)
        assert np.array_equal(
            decode_centered(encode_mod(values, 256), 256), values
        )

    def test_wraparound_outside_range(self):
        # 130 is outside [-128, 128) so it comes back as 130 - 256.
        assert decode_centered(encode_mod(np.array([130]), 256), 256)[0] == -126

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=-10**9, max_value=10**9), min_size=1),
        st.integers(min_value=1, max_value=15),
    )
    def test_property_roundtrip_iff_in_range(self, values, log_modulus):
        modulus = 2**log_modulus
        array = np.array(values, dtype=np.int64)
        decoded = decode_centered(encode_mod(array, modulus), modulus)
        half = modulus // 2
        in_range = (array >= -half) & (array < half)
        assert np.array_equal(decoded[in_range], array[in_range])
        # All decoded values are congruent to the originals mod m.
        assert np.all((decoded - array) % modulus == 0)


class TestWrapsAround:
    def test_within_range(self):
        assert not wraps_around(np.array([-128, 127]), 256)

    def test_above_range(self):
        assert wraps_around(np.array([128]), 256)

    def test_below_range(self):
        assert wraps_around(np.array([-129]), 256)


class TestFieldKernels:
    """128-bit-safe limb-split arithmetic against Python-int references."""

    PRIMES = [MERSENNE_61, (1 << 31) - 1, 101, 2]

    @pytest.mark.parametrize("prime", PRIMES)
    def test_mul_mod_matches_python_ints(self, prime):
        rng = np.random.default_rng(2022)
        a = rng.integers(0, prime, size=500, dtype=np.uint64)
        b = rng.integers(0, prime, size=500, dtype=np.uint64)
        expected = [(int(x) * int(y)) % prime for x, y in zip(a, b)]
        assert mul_mod(a, b, prime).tolist() == expected

    def test_mul_mod_worst_case_operands(self):
        p = MERSENNE_61
        edge = np.array([p - 1, p - 1, 1, 0, p // 2, (1 << 60) + 12345],
                        dtype=np.uint64)
        assert mul_mod(edge, edge, p).tolist() == [
            (int(v) ** 2) % p for v in edge
        ]

    def test_mul_mod_reduces_out_of_range_inputs(self):
        # Operands above the modulus are reduced, not silently wrong.
        assert int(mul_mod(np.uint64(2**63), np.uint64(3), 101)) == (
            (2**63 % 101) * 3
        ) % 101

    def test_mul_mod_oversized_modulus_rejected(self):
        with pytest.raises(ConfigurationError, match="2\\^61"):
            mul_mod(np.uint64(1), np.uint64(1), (1 << 61) + 2)

    @pytest.mark.parametrize("prime", PRIMES)
    def test_pow_mod_matches_python_pow(self, prime):
        rng = np.random.default_rng(7)
        base = rng.integers(0, prime, size=40, dtype=np.uint64)
        for exponent in (0, 1, 2, 12345, prime - 1):
            assert pow_mod(base, exponent, prime).tolist() == [
                pow(int(b), exponent, prime) for b in base
            ]

    def test_pow_mod_negative_exponent_rejected(self):
        with pytest.raises(ConfigurationError, match="exponent"):
            pow_mod(np.uint64(2), -1, 101)

    def test_fixed_base_pow_matches_python_pow(self):
        p = MERSENNE_61
        rng = np.random.default_rng(11)
        for base in rng.integers(1, p, size=4).tolist():
            table = fixed_base_table(base, p)
            exponents = rng.integers(0, p, size=200, dtype=np.uint64)
            assert fixed_base_pow(table, (exponents,), p).tolist() == [
                pow(base, int(e), p) for e in exponents
            ]

    @pytest.mark.parametrize("prime", [MERSENNE_61, (1 << 31) - 1, 101])
    def test_window_tables_of_many_bases(self, prime):
        bases = [0, 1, 2, prime - 1, prime + 3, 12345 % prime]
        for window, bits in [(1, 5), (4, 61), (5, 31), (11, 128)]:
            tables = window_tables(bases, prime, window, bits)
            rows = -(-bits // window)
            assert tables.shape == (len(bases), rows, 1 << window)
            assert tables.tolist() == [
                [
                    [
                        pow(base, w << (window * k), prime)
                        for w in range(1 << window)
                    ]
                    for k in range(rows)
                ]
                for base in bases
            ]
        # The generator's memoised table is the same builder's row.
        assert np.array_equal(
            fixed_base_table(7, prime), window_tables([7], prime, 11, 128)[0]
        )

    @pytest.mark.parametrize("prime", [MERSENNE_61, (1 << 31) - 1, 101])
    @pytest.mark.parametrize("window", [1, 3, 4, 6])
    def test_window_pow_matches_python_pow(self, prime, window):
        rng = np.random.default_rng(window)
        bits = (prime - 1).bit_length()
        bases = [0, 1, prime - 1] + rng.integers(2, prime, size=9).tolist()
        tables = window_tables(bases, prime, window, bits)
        lanes = [4, 0, 4, 11, 2, 1]
        top = (1 << (window * tables.shape[1])) - 1
        for exponent in [0, 1, 2, prime - 2, prime - 1, top] + rng.integers(
            0, prime, size=4
        ).tolist():
            assert window_pow(tables, lanes, exponent, prime).tolist() == [
                pow(bases[lane], exponent, prime) for lane in lanes
            ]
        assert window_pow(tables, [], 5, prime).tolist() == []
        for exponent in (-1, top + 1):
            with pytest.raises(ConfigurationError, match="exponent"):
                window_pow(tables, lanes, exponent, prime)

    @pytest.mark.parametrize("prime", [MERSENNE_61, 101])
    def test_inv_mod_inverts(self, prime):
        values = np.arange(1, min(prime, 60), dtype=np.uint64)
        assert np.all(mul_mod(inv_mod(values, prime), values, prime) == 1)

    def test_inv_mod_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            inv_mod(np.array([0], dtype=np.uint64), 101)

    @pytest.mark.parametrize("prime", [MERSENNE_61, (1 << 31) - 1, 101])
    @pytest.mark.parametrize("num_coeffs", [1, 2, 3, 8, 40])
    def test_horner_matches_python_reference(self, prime, num_coeffs):
        rng = np.random.default_rng(num_coeffs)
        coeffs = rng.integers(0, prime, size=(3, num_coeffs), dtype=np.uint64)
        xs = rng.integers(1, min(prime, 600), size=17, dtype=np.uint64)
        out = horner_mod(coeffs, xs, prime)
        for k in range(3):
            for j in range(17):
                reference = 0
                for c in reversed(coeffs[k].tolist()):
                    reference = (reference * int(xs[j]) + c) % prime
                assert int(out[k, j]) == reference

    def test_horner_large_points_use_generic_path(self):
        # The powers of a point near p are full-width residues like any
        # coefficient: no point is special.
        p = MERSENNE_61
        rng = np.random.default_rng(5)
        coeffs = rng.integers(0, p, size=(2, 6), dtype=np.uint64)
        xs = rng.integers(1 << 40, p, size=5, dtype=np.uint64)
        out = horner_mod(coeffs, xs, p)
        for k in range(2):
            reference = 0
            for c in reversed(coeffs[k].tolist()):
                reference = (reference * int(xs[0]) + c) % p
            assert int(out[k, 0]) == reference

    def test_sum_mod_overflow_safe(self):
        p = MERSENNE_61
        values = np.full(5000, p - 1, dtype=np.uint64)
        assert int(sum_mod(values, p)) == (5000 * (p - 1)) % p

    def test_sum_mod_axis_and_empty(self):
        matrix = np.arange(12, dtype=np.uint64).reshape(3, 4)
        assert sum_mod(matrix, 7, axis=1).tolist() == [
            int(row.sum()) % 7 for row in matrix
        ]
        assert sum_mod(np.empty((0, 4), dtype=np.uint64), 7).tolist() == [
            0, 0, 0, 0,
        ]

    @given(
        a=st.integers(min_value=0, max_value=(1 << 61) - 2),
        b=st.integers(min_value=0, max_value=(1 << 61) - 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_mul_mod_property_mersenne(self, a, b):
        p = MERSENNE_61
        assert int(mul_mod(np.uint64(a), np.uint64(b), p)) == (a * b) % p


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMersenneFoldKernels:
    """The GF(2^61 - 1) multiply, squaring and the exponentiations built
    on them, pinned to Python integers — under ``error::RuntimeWarning``,
    because numpy *scalars* warn on the overflow that arrays wrap
    silently, and the fold must not overflow at all."""

    P = MERSENNE_61
    #: Every limb boundary of the fold (operands split at bit 31, cross
    #: terms at bits 30 and 29, the generic path at bit 32) from both
    #: sides, and the ends of the field.
    EDGES = sorted(
        {0, 1, 1 << 60, MERSENNE_61 - 2, MERSENNE_61 - 1}
        | {(1 << k) + d for k in (28, 29, 30, 31, 32) for d in (-1, 0, 1)}
    )

    def test_mul_mod_on_the_edge_cross_product(self):
        p = self.P
        a, b = np.meshgrid(
            np.asarray(self.EDGES, dtype=np.uint64),
            np.asarray(self.EDGES, dtype=np.uint64),
            indexing="ij",
        )
        expected = [[x * y % p for y in self.EDGES] for x in self.EDGES]
        assert mul_mod(a, b, p).tolist() == expected

    def test_squaring_on_the_edges(self):
        p = self.P
        # 2^61 - 1 itself is inside the kernels' stated operand range.
        edges = self.EDGES + [p]
        a = np.asarray(edges, dtype=np.uint64)
        expected = [x * x % p for x in edges]
        assert _sqr_mod_m61(a).tolist() == expected
        assert _mul_mod_m61(a, a).tolist() == expected
        assert mul_mod(a, a, p).tolist() == expected

    def test_kernels_leave_their_operands_alone(self):
        a = np.asarray(self.EDGES, dtype=np.uint64)
        b = a[::-1].copy()
        before = a.tolist(), b.tolist()
        _mul_mod_m61(a, b)
        _mul_mod_m61(a, a)
        _sqr_mod_m61(a)
        assert (a.tolist(), b.tolist()) == before

    @pytest.mark.parametrize(
        "wrap",
        [int, np.uint64, lambda v: np.asarray(v, dtype=np.uint64)],
        ids=["int", "numpy-scalar", "0-d-array"],
    )
    def test_scalar_operands_are_exact_and_warning_free(self, wrap):
        p = self.P
        for x in self.EDGES:
            for y in self.EDGES:
                assert int(mul_mod(wrap(x), wrap(y), p)) == x * y % p
            assert int(pow_mod(wrap(x), p - 2, p)) == pow(x, p - 2, p)
            assert int(
                fixed_base_pow(fixed_base_table(x, p), (wrap(p - 2),), p)
            ) == pow(x, p - 2, p)
            for y in self.EDGES:
                low, high = mul_wide(wrap(x), wrap(y))
                assert int(high) << 64 | int(low) == x * y

    def test_broadcast_operands(self):
        # The (k, 1) x (1, n) product horner_mod forms, and a scalar
        # against a vector.
        p = self.P
        column = np.asarray(self.EDGES, dtype=np.uint64)[:, np.newaxis]
        row = np.asarray(self.EDGES[::-1], dtype=np.uint64)[np.newaxis, :]
        assert mul_mod(column, row, p).tolist() == [
            [x * y % p for y in self.EDGES[::-1]] for x in self.EDGES
        ]
        assert mul_mod(p - 1, row[0], p).tolist() == [
            (p - 1) * y % p for y in self.EDGES[::-1]
        ]

    @given(
        a=st.integers(min_value=0, max_value=(1 << 61) - 1),
        b=st.integers(min_value=0, max_value=(1 << 61) - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_fold_property(self, a, b):
        p = self.P
        operands = np.asarray([a, b], dtype=np.uint64)
        assert _mul_mod_m61(operands, operands[::-1]).tolist() == [
            a * b % p
        ] * 2
        assert _sqr_mod_m61(operands).tolist() == [a * a % p, b * b % p]

    def test_pow_mod_exponent_edges(self):
        p = self.P
        rng = np.random.default_rng(61)
        bases = self.EDGES + rng.integers(0, p, size=20).tolist()
        array = np.asarray(bases, dtype=np.uint64)
        exponents = [0, 1, 2, p - 2, p - 1] + rng.integers(
            1 << 60, 1 << 61, size=3
        ).tolist()
        for exponent in exponents:
            expected = [pow(x, exponent, p) for x in bases]
            assert pow_mod(array, exponent, p).tolist() == expected
        # The fixed-base kernel at the same exponents, one table a base.
        lanes = np.asarray(exponents, dtype=np.uint64)
        for x in bases:
            assert fixed_base_pow(
                fixed_base_table(x, p), (lanes,), p
            ).tolist() == [pow(x, exponent, p) for exponent in exponents]

    def test_fixed_base_pow_mixed_and_zero_exponents(self):
        p = self.P
        rng = np.random.default_rng(62)
        for base in [0, 1, 3] + rng.integers(2, p, size=3).tolist():
            table = fixed_base_table(base, p)
            exponents = rng.integers(0, 1 << 61, size=64, dtype=np.uint64)
            exponents[::5] = 0
            exponents[1::7] = 1
            before = table.copy(), exponents.tolist()
            assert fixed_base_pow(table, (exponents,), p).tolist() == [
                pow(base, int(e), p) for e in exponents
            ]
            assert np.array_equal(table, before[0])
            assert exponents.tolist() == before[1]
            # Every lane's exponent zero: x^0 = 1, also for x = 0.
            assert fixed_base_pow(
                table, (np.zeros(64, dtype=np.uint64),), p
            ).tolist() == [1] * 64
            assert fixed_base_pow(
                table, (np.empty(0, dtype=np.uint64),), p
            ).tolist() == []

    def test_fixed_base_pow_two_word_exponents(self):
        # The warm sweep's exponent: the exact product of two private
        # keys, 122 bits, with the edges of both words and of the
        # window straddling them (bits 55..65).
        p = self.P
        rng = np.random.default_rng(64)
        factors = self.EDGES + rng.integers(0, p, size=12).tolist()
        a, b = (np.asarray(v, dtype=np.uint64) for v in zip(*[
            (x, y) for x in factors for y in factors
        ]))
        low, high = mul_wide(a, b)
        assert [
            int(h) << 64 | int(lo) for lo, h in zip(low, high)
        ] == [int(x) * int(y) for x, y in zip(a, b)]
        for base in (3, p - 1):
            assert fixed_base_pow(
                fixed_base_table(base, p), (low, high), p
            ).tolist() == [pow(base, int(x) * int(y), p) for x, y in zip(a, b)]
        words = [np.uint64(1 << 63), np.uint64((1 << 64) - 1)]
        assert int(
            fixed_base_pow(fixed_base_table(3, p), words, p)
        ) == pow(3, (1 << 63) + ((1 << 64) - 1 << 64), p)

    @pytest.mark.parametrize("prime", [(1 << 31) - 1, 101, 1 << 61])
    def test_other_moduli_keep_the_generic_path(self, prime):
        rng = np.random.default_rng(63)
        bases = rng.integers(0, prime, size=30, dtype=np.uint64)
        exponents = rng.integers(0, prime, size=30, dtype=np.uint64)
        assert pow_mod(bases, prime - 2, prime).tolist() == [
            pow(int(b), prime - 2, prime) for b in bases
        ]
        for base in bases[:3].tolist():
            assert fixed_base_pow(
                fixed_base_table(base, prime), (exponents,), prime
            ).tolist() == [pow(base, int(e), prime) for e in exponents]


def _matmul_reference(left, right, modulus):
    """``left @ right mod m`` over Python integers."""
    columns = list(zip(*right)) if right else []
    return [
        [sum(a * b for a, b in zip(row, column)) % modulus for column in columns]
        for row in left
    ]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMatmulMod:
    """The float64-limb matrix product, pinned to Python integers: the
    limb boundaries (bits 21 and 42), the ``2^11``-term block boundary,
    every kind of modulus ``mul_mod`` serves, and no overflow anywhere
    (``error::RuntimeWarning``: numpy scalars warn where arrays wrap)."""

    P = MERSENNE_61
    MODULI = [MERSENNE_61, 1 << 61, (1 << 31) - 1, 101]
    EDGES = sorted(
        {0, 1, MERSENNE_61 - 1}
        | {(1 << k) + d for k in (21, 42) for d in (-1, 1)}
    )

    @given(
        rows=st.integers(min_value=1, max_value=4),
        terms=st.integers(min_value=1, max_value=6),
        columns=st.integers(min_value=1, max_value=4),
        modulus=st.sampled_from(MODULI),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_against_python_integers(
        self, rows, terms, columns, modulus, data
    ):
        residues = st.integers(min_value=0, max_value=modulus - 1)
        left = data.draw(
            st.lists(
                st.lists(residues, min_size=terms, max_size=terms),
                min_size=rows, max_size=rows,
            )
        )
        right = data.draw(
            st.lists(
                st.lists(residues, min_size=columns, max_size=columns),
                min_size=terms, max_size=terms,
            )
        )
        out = matmul_mod(
            np.asarray(left, dtype=np.uint64),
            np.asarray(right, dtype=np.uint64),
            modulus,
        )
        assert out.dtype == np.uint64
        assert out.tolist() == _matmul_reference(left, right, modulus)

    @pytest.mark.parametrize("modulus", MODULI)
    def test_edge_operands_on_both_sides(self, modulus):
        # Every edge against every edge, as an outer product (one term)
        # and as a row of edges against a matrix of them (many terms).
        # (Edges at or above a small modulus are reduced on the way in,
        # which the integer reference is indifferent to.)
        column = [[e] for e in self.EDGES]
        row = [self.EDGES[::-1]]
        assert matmul_mod(
            np.asarray(column, dtype=np.uint64),
            np.asarray(row, dtype=np.uint64),
            modulus,
        ).tolist() == _matmul_reference(column, row, modulus)
        square = [self.EDGES[i:] + self.EDGES[:i] for i in range(len(row[0]))]
        assert matmul_mod(
            np.asarray(row, dtype=np.uint64),
            np.asarray(square, dtype=np.uint64),
            modulus,
        ).tolist() == _matmul_reference(row, square, modulus)

    @pytest.mark.parametrize("modulus", MODULI)
    @pytest.mark.parametrize("terms", [1, 2, 1 << 11, (1 << 11) + 1, 5000])
    def test_contraction_lengths_across_the_block_boundary(
        self, terms, modulus
    ):
        # All-(m - 1) operands are the largest sums a block can form;
        # random ones catch a misplaced limb.
        rng = np.random.default_rng(terms)
        worst = np.full((2, terms), modulus - 1, dtype=np.uint64)
        assert matmul_mod(worst, worst.T, modulus).tolist() == [
            [terms * (modulus - 1) ** 2 % modulus] * 2
        ] * 2
        left = rng.integers(0, modulus, size=(3, terms), dtype=np.uint64)
        right = rng.integers(0, modulus, size=(terms, 2), dtype=np.uint64)
        assert matmul_mod(left, right, modulus).tolist() == _matmul_reference(
            left.tolist(), right.tolist(), modulus
        )

    def test_out_of_range_operands_are_reduced_first(self):
        top = np.uint64((1 << 64) - 1)
        left = np.asarray([[top, 5]], dtype=np.uint64)
        right = np.asarray([[top], [7]], dtype=np.uint64)
        for modulus in self.MODULI:
            reduced = int(top) % modulus
            assert matmul_mod(left, right, modulus).tolist() == [
                [(reduced * reduced + 35) % modulus]
            ]

    def test_empty_operands(self):
        p = self.P
        empty = np.empty
        assert matmul_mod(
            empty((3, 0), np.uint64), empty((0, 2), np.uint64), p
        ).tolist() == [[0, 0]] * 3
        assert matmul_mod(
            empty((0, 4), np.uint64), empty((4, 2), np.uint64), p
        ).shape == (0, 2)
        assert matmul_mod(
            empty((2, 4), np.uint64), empty((4, 0), np.uint64), p
        ).shape == (2, 0)

    def test_operands_are_left_unmodified(self):
        rng = np.random.default_rng(9)
        left = rng.integers(0, 1 << 63, size=(3, 5), dtype=np.uint64)
        right = rng.integers(0, 1 << 63, size=(5, 4), dtype=np.uint64)
        before = left.tolist(), right.tolist()
        matmul_mod(left, right, self.P)
        assert (left.tolist(), right.tolist()) == before

    def test_shape_and_modulus_refusals(self):
        matrix = np.ones((2, 3), dtype=np.uint64)
        with pytest.raises(ConfigurationError, match="cannot multiply"):
            matmul_mod(matrix, matrix, self.P)
        with pytest.raises(ConfigurationError, match="cannot multiply"):
            matmul_mod(matrix[0], matrix.T, self.P)
        with pytest.raises(ConfigurationError, match="modulus"):
            matmul_mod(matrix, matrix.T, (1 << 61) + 1)

    def test_horner_is_the_matrix_product_and_its_memo_is_read_only(self):
        # horner_mod memoises the points' powers; the memo must be the
        # same answer for every caller, whatever a caller does with it.
        p = self.P
        rng = np.random.default_rng(4)
        coefficients = rng.integers(0, p, size=(3, 9), dtype=np.uint64)
        points = np.asarray(self.EDGES[1:], dtype=np.uint64)
        powers = [[pow(int(x), i, p) for x in points] for i in range(9)]
        first = horner_mod(coefficients, points, p)
        assert first.tolist() == matmul_mod(
            coefficients, np.asarray(powers, dtype=np.uint64), p
        ).tolist()
        first[:] = 0
        assert horner_mod(coefficients, points, p).tolist() == (
            _matmul_reference(coefficients.tolist(), powers, p)
        )
