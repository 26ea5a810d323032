"""Unit and property tests for the prime-field arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.secagg.field import (
    DEFAULT_FIELD,
    MERSENNE_61,
    PrimeField,
    _is_probable_prime,
)

SMALL_FIELD = PrimeField(prime=101)

elements = st.integers(min_value=0, max_value=100)


class TestPrimality:
    def test_small_primes_accepted(self):
        for p in (2, 3, 5, 7, 11, 101, 65537):
            assert _is_probable_prime(p)

    def test_small_composites_rejected(self):
        for n in (0, 1, 4, 9, 91, 65536, 561, 1105):
            # 561 and 1105 are Carmichael numbers.
            assert not _is_probable_prime(n)

    def test_mersenne_61_is_prime(self):
        assert _is_probable_prime(MERSENNE_61)

    def test_mersenne_127_is_prime(self):
        assert _is_probable_prime((1 << 127) - 1)

    def test_composite_modulus_rejected(self):
        with pytest.raises(ConfigurationError, match="prime"):
            PrimeField(prime=100)

    def test_modulus_below_two_rejected(self):
        with pytest.raises(ConfigurationError):
            PrimeField(prime=1)

    def test_field_wider_than_the_share_arithmetic_is_refused(self):
        """A prime above 2^61 used to construct and then die inside the
        first Shamir split with numpy's bare ``ValueError: high is out
        of bounds for int64``; now no Bonawitz round or split can be
        handed one — the refusal is typed and precedes any randomness."""
        for prime in ((1 << 89) - 1, (1 << 127) - 1):
            with pytest.raises(ConfigurationError, match="exceeds"):
                PrimeField(prime=prime)
        assert PrimeField(prime=MERSENNE_61) == DEFAULT_FIELD


class TestArithmetic:
    def test_element_canonicalises(self):
        assert SMALL_FIELD.element(205) == 3
        assert SMALL_FIELD.element(-1) == 100

    def test_add_wraps(self):
        assert SMALL_FIELD.add(100, 5) == 4

    def test_sub_wraps(self):
        assert SMALL_FIELD.sub(3, 5) == 99

    def test_neg_of_zero_is_zero(self):
        assert SMALL_FIELD.neg(0) == 0

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            SMALL_FIELD.inv(0)

    def test_inverse_of_multiple_of_prime_raises(self):
        with pytest.raises(ZeroDivisionError):
            SMALL_FIELD.inv(202)

    @given(a=elements.filter(lambda a: a != 0))
    def test_inverse_property(self, a):
        assert SMALL_FIELD.mul(a, SMALL_FIELD.inv(a)) == 1

    @given(a=elements, b=elements)
    def test_commutativity(self, a, b):
        assert SMALL_FIELD.add(a, b) == SMALL_FIELD.add(b, a)
        assert SMALL_FIELD.mul(a, b) == SMALL_FIELD.mul(b, a)

    @given(a=elements, b=elements, c=elements)
    def test_distributivity(self, a, b, c):
        left = SMALL_FIELD.mul(a, SMALL_FIELD.add(b, c))
        right = SMALL_FIELD.add(SMALL_FIELD.mul(a, b), SMALL_FIELD.mul(a, c))
        assert left == right

    @given(a=elements, b=elements)
    def test_sub_is_add_of_neg(self, a, b):
        assert SMALL_FIELD.sub(a, b) == SMALL_FIELD.add(a, SMALL_FIELD.neg(b))

    def test_pow_matches_builtin(self):
        assert SMALL_FIELD.pow(7, 23) == pow(7, 23, 101)

    def test_default_field_is_mersenne(self):
        assert DEFAULT_FIELD.prime == MERSENNE_61


class TestPolynomialEvaluation:
    def test_constant_polynomial(self):
        assert SMALL_FIELD.evaluate_polynomial([42], 17) == 42

    def test_linear_polynomial(self):
        # f(x) = 3 + 5x at x = 7 -> 38.
        assert SMALL_FIELD.evaluate_polynomial([3, 5], 7) == 38

    def test_evaluation_reduces_mod_p(self):
        # f(x) = 100 + 100x at x = 100 -> 100 + 10000 = 10100 = 100 mod 101.
        assert SMALL_FIELD.evaluate_polynomial([100, 100], 100) == 10100 % 101

    @given(
        coefficients=st.lists(elements, min_size=1, max_size=6), x=elements
    )
    def test_matches_naive_evaluation(self, coefficients, x):
        naive = sum(c * x**k for k, c in enumerate(coefficients)) % 101
        assert SMALL_FIELD.evaluate_polynomial(coefficients, x) == naive
