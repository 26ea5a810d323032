"""Prime-field arithmetic for the secure-aggregation cryptography.

Shamir secret sharing (:mod:`repro.secagg.shamir`) and the simulated
Diffie-Hellman key agreement (:mod:`repro.secagg.keys`) both operate over
``GF(p)`` for a public prime ``p``.  A :class:`PrimeField` names that
prime; the protocol's share arithmetic runs on the limb-split uint64
kernels (:mod:`repro.linalg.modular`), so a field is refused unless they
can carry it — there is no second, wide-field code path.  Its
Python-integer arithmetic (:meth:`PrimeField.mul`,
:meth:`PrimeField.evaluate_polynomial`, ...) is what the scalar Shamir
oracles of the test suite (``tests/secagg_reference.py``) compute with.

The default prime is the Mersenne prime ``2^61 - 1``: large enough to
embed 32-bit mask seeds and SecAgg moduli up to ``2^60`` with room to
spare, and small enough that Lagrange interpolation over hundreds of
shares stays fast.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigurationError
from repro.linalg.modular import LIMB_SPLIT_MAX_MODULUS

#: Mersenne prime 2^61 - 1, the default field modulus.
MERSENNE_61 = (1 << 61) - 1


def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit (and probable beyond).

    Uses the first twelve primes as witnesses, which is a proven
    deterministic test for every ``n < 3.3 * 10^24`` — far beyond any
    modulus this library constructs.
    """
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small_primes:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small_primes:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclasses.dataclass(frozen=True)
class PrimeField:
    """The finite field ``GF(p)``.

    Attributes:
        prime: The field modulus; validated on construction to be prime
            and at most :data:`~repro.linalg.modular.LIMB_SPLIT_MAX_MODULUS`
            (``2^61``), the widest the vectorised share arithmetic
            carries.
    """

    prime: int = MERSENNE_61

    def __post_init__(self) -> None:
        if self.prime < 2 or not _is_probable_prime(self.prime):
            raise ConfigurationError(
                f"field modulus must be prime, got {self.prime}"
            )
        if self.prime > LIMB_SPLIT_MAX_MODULUS:
            raise ConfigurationError(
                f"field modulus {self.prime} exceeds "
                f"{LIMB_SPLIT_MAX_MODULUS}, the widest the share "
                "arithmetic carries"
            )

    @property
    def order(self) -> int:
        """Number of field elements."""
        return self.prime

    def element(self, value: int) -> int:
        """Canonical representative of ``value`` in ``[0, p)``."""
        return value % self.prime

    def add(self, a: int, b: int) -> int:
        """Field addition."""
        return (a + b) % self.prime

    def sub(self, a: int, b: int) -> int:
        """Field subtraction."""
        return (a - b) % self.prime

    def mul(self, a: int, b: int) -> int:
        """Field multiplication."""
        return (a * b) % self.prime

    def neg(self, a: int) -> int:
        """Additive inverse."""
        return (-a) % self.prime

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat's little theorem.

        Raises:
            ZeroDivisionError: If ``a`` is zero in the field.
        """
        if a % self.prime == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return pow(a, self.prime - 2, self.prime)

    def pow(self, base: int, exponent: int) -> int:
        """Field exponentiation ``base ** exponent mod p``."""
        return pow(base % self.prime, exponent, self.prime)

    def evaluate_polynomial(self, coefficients: list[int], x: int) -> int:
        """Evaluate a polynomial (lowest-degree coefficient first) at ``x``.

        Horner's rule over the field, one share at a time: the scalar
        oracle that :func:`repro.linalg.modular.horner_mod` is tested
        against.
        """
        result = 0
        for coefficient in reversed(coefficients):
            result = (result * x + coefficient) % self.prime
        return result


#: Module-level default field instance (GF(2^61 - 1)).
DEFAULT_FIELD = PrimeField()
