"""Modular wraparound codec and vectorised prime-field arithmetic.

Two layers share this module:

*Wire format.* Clients reduce their integer vectors modulo ``m`` before
aggregation (line 11 of Algorithm 4) and the server maps the aggregated
residues back to the centred interval ``[-m/2, m/2)`` (line 1 of
Algorithm 6):

* residues in ``{0, ..., m/2 - 1}`` decode to themselves, and
* residues in ``{m/2, ..., m - 1}`` decode to ``{-m/2, ..., -1}``.

Decoding recovers the true integer sum exactly when it lies in the centred
interval; otherwise it wraps around — the overflow failure mode that
dominates the baselines' error at small bitwidths (Section 6).

*Field kernels.* The vectorised SecAgg kernels
(:mod:`repro.secagg.kernels`) run Shamir share generation and Lagrange
reconstruction as numpy array programs over the 61-bit prime field.
Products of two 61-bit residues need 122 bits, which uint64 cannot hold,
so :func:`mul_mod` splits each operand into 32-bit limbs and reduces the
partial products with shift-and-mod steps that each stay below ``2^64``
— exact modular multiplication without arbitrary-precision integers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: Largest modulus the limb-split kernels support.  Operands live in
#: ``[0, m)``; with ``m <= 2^61`` every intermediate (cross-limb partial
#: products, 3-bit shift-reduce steps) provably fits in uint64.
LIMB_SPLIT_MAX_MODULUS = 1 << 61

_LIMB_MASK = np.uint64((1 << 32) - 1)
_LIMB_SHIFT = np.uint64(32)

#: Mersenne prime 2^61 - 1 — the default SecAgg field modulus, with a
#: dedicated fast reduction (2^61 ≡ 1 lets the 128-bit product fold into
#: 64 bits with shifts instead of repeated division).
_M61 = (1 << 61) - 1
_M61_U64 = np.uint64(_M61)


def _validate_field_modulus(modulus: int) -> np.uint64:
    if not 2 <= modulus <= LIMB_SPLIT_MAX_MODULUS:
        raise ConfigurationError(
            f"limb-split kernels need 2 <= modulus <= 2^61, got {modulus}"
        )
    return np.uint64(modulus)


def _shift32_mod(values: np.ndarray, modulus: np.uint64) -> np.ndarray:
    """``(values * 2^32) mod m`` for ``values < m <= 2^61``.

    Shifting 3 bits at a time keeps every intermediate below ``2^64``
    (``x < 2^61`` implies ``x << 3 < 2^64``), so the reduction is exact
    in uint64.
    """
    for shift in (3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2):  # 32 bits total
        values = (values << np.uint64(shift)) % modulus
    return values


def _mul_mod_m61(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a * b) mod (2^61 - 1)`` for operands already in ``[0, 2^61)``.

    Standard 32-bit-limb "mulhi": the high 64 bits of the 128-bit
    product are assembled from the four partial products (each < 2^64),
    then the whole product folds modulo the Mersenne prime using
    ``2^64 ≡ 8`` and ``2^61 ≡ 1``.
    """
    a1, a0 = a >> _LIMB_SHIFT, a & _LIMB_MASK
    b1, b0 = b >> _LIMB_SHIFT, b & _LIMB_MASK
    mid1 = a1 * b0
    mid2 = a0 * b1
    carry = ((a0 * b0 >> _LIMB_SHIFT) + (mid1 & _LIMB_MASK) + (
        mid2 & _LIMB_MASK
    )) >> _LIMB_SHIFT
    high = a1 * b1 + (mid1 >> _LIMB_SHIFT) + (mid2 >> _LIMB_SHIFT) + carry
    with np.errstate(over="ignore"):
        low = a * b  # uint64 wraparound keeps exactly the low 64 bits
    folded = (high << np.uint64(3)) + (low >> np.uint64(61)) + (
        low & _M61_U64
    )
    return folded % _M61_U64


def mul_mod(
    a: np.ndarray | int, b: np.ndarray | int, modulus: int
) -> np.ndarray:
    """Exact ``(a * b) mod m`` on uint64 arrays via 32-bit limb splitting.

    Args:
        a: Residues in ``[0, m)`` (array or scalar; broadcast applies).
        b: Residues in ``[0, m)``.
        modulus: The modulus ``m``, at most :data:`LIMB_SPLIT_MAX_MODULUS`.

    Returns:
        ``(a * b) mod m`` as a uint64 array, exact even though the full
        128-bit product never materialises: with ``a = a1*2^32 + a0`` and
        ``b = b1*2^32 + b0``, the partial products ``a1*b1 < 2^58``,
        ``a1*b0 + a0*b1 < 2^62`` and ``a0*b0 < 2^64`` each fit in uint64,
        and the radix recombination uses :func:`_shift32_mod`.

    Raises:
        ConfigurationError: If the modulus is outside ``[2, 2^61]``.
    """
    m = _validate_field_modulus(modulus)
    a = np.asarray(a, dtype=np.uint64) % m
    b = np.asarray(b, dtype=np.uint64) % m
    if modulus == _M61:
        return _mul_mod_m61(a, b)
    a1, a0 = a >> _LIMB_SHIFT, a & _LIMB_MASK
    b1, b0 = b >> _LIMB_SHIFT, b & _LIMB_MASK
    result = _shift32_mod(a1 * b1 % m, m)
    result = _shift32_mod((result + (a1 * b0 + a0 * b1) % m) % m, m)
    return (result + a0 * b0 % m) % m


def pow_mod(
    base: np.ndarray | int, exponent: int, modulus: int
) -> np.ndarray:
    """Vectorised ``base ** exponent mod m`` by square-and-multiply.

    Args:
        base: Residues in ``[0, m)``.
        exponent: Non-negative integer exponent (shared by all lanes).
        modulus: Modulus, at most :data:`LIMB_SPLIT_MAX_MODULUS`.

    Returns:
        Element-wise modular power as a uint64 array.

    Raises:
        ConfigurationError: On a negative exponent or oversized modulus.
    """
    m = _validate_field_modulus(modulus)
    if exponent < 0:
        raise ConfigurationError(
            f"exponent must be >= 0, got {exponent}"
        )
    base = np.asarray(base, dtype=np.uint64) % m
    result = np.ones_like(base)
    while exponent:
        if exponent & 1:
            result = mul_mod(result, base, modulus)
        exponent >>= 1
        if exponent:
            base = mul_mod(base, base, modulus)
    return result


def pow_mod_elementwise(
    bases: np.ndarray, exponents: np.ndarray, modulus: int
) -> np.ndarray:
    """Lane-wise ``bases[i] ** exponents[i] mod m`` in one batched sweep.

    Branchless square-and-multiply: every iteration squares all lanes
    and multiplies the lanes whose current exponent bit is set.  The
    entire sweep is ``O(max_bits)`` *vectorised* multiplications, so a
    batch of 100k exponentiations costs a few dozen array passes — the
    kernel behind the simulation's all-pairs Diffie-Hellman warm-up.

    Args:
        bases: Residues in ``[0, m)``.
        exponents: Non-negative 64-bit exponents, one per base.
        modulus: Modulus, at most :data:`LIMB_SPLIT_MAX_MODULUS`.

    Returns:
        Element-wise modular power as a uint64 array.
    """
    m = _validate_field_modulus(modulus)
    bases = np.asarray(bases, dtype=np.uint64) % m
    exponents = np.asarray(exponents, dtype=np.uint64).copy()
    result = np.ones_like(bases)
    one = np.uint64(1)
    while np.any(exponents):
        odd = (exponents & one).astype(bool)
        result = np.where(odd, mul_mod(result, bases, modulus), result)
        exponents >>= one
        if np.any(exponents):
            bases = mul_mod(bases, bases, modulus)
    return result


def inv_mod(values: np.ndarray | int, prime: int) -> np.ndarray:
    """Vectorised multiplicative inverse over ``GF(p)`` (Fermat).

    Args:
        values: Nonzero residues in ``[1, p)``.
        prime: A prime modulus, at most :data:`LIMB_SPLIT_MAX_MODULUS`.

    Returns:
        Element-wise ``values^{-1} mod p``.

    Raises:
        ZeroDivisionError: If any lane is zero modulo ``p``.
    """
    values = np.asarray(values, dtype=np.uint64) % np.uint64(prime)
    if np.any(values == 0):
        raise ZeroDivisionError("zero has no multiplicative inverse")
    return pow_mod(values, prime - 2, prime)


def horner_mod(
    coefficients: np.ndarray, xs: np.ndarray, modulus: int
) -> np.ndarray:
    """Evaluate polynomials at many points, all lanes at once.

    Args:
        coefficients: ``(num_polys, degree + 1)`` uint64-compatible
            matrix, lowest-degree coefficient first (the Shamir secret
            sits in column 0), entries in ``[0, m)``.
        xs: ``(num_points,)`` evaluation points in ``[0, m)``.
        modulus: Modulus, at most :data:`LIMB_SPLIT_MAX_MODULUS`.

    Returns:
        ``(num_polys, num_points)`` uint64 matrix ``f_k(x_j) mod m`` —
        Horner's rule, one vectorised multiply-add per degree.
    """
    m = _validate_field_modulus(modulus)
    coefficients = np.atleast_2d(np.asarray(coefficients, dtype=np.uint64))
    xs = np.asarray(xs, dtype=np.uint64)
    if modulus == _M61 and xs.size == 0:
        return _horner_m61_small_x(coefficients % m, xs)
    if modulus == _M61 and int(xs.max()) < (1 << 14):
        # Even/odd split: f(x) = g(x²) + x·h(x²).  Stacking g and h into
        # one coefficient matrix halves the (sequential) Horner steps by
        # doubling the (vectorised) row count — a straight win while the
        # per-step cost is numpy-call-bound.  Needs x² < 2^29 for the
        # lazy-reduction kernel, hence x < 2^14.
        num_polys, num_coeffs = coefficients.shape
        even = coefficients[:, 0::2] % m
        odd = coefficients[:, 1::2] % m
        if odd.shape[1] < even.shape[1]:
            odd = np.pad(odd, ((0, 0), (0, 1)))
        stacked = _horner_m61_small_x(
            np.concatenate([even, odd]), xs * xs
        )
        return (
            stacked[:num_polys]
            + mul_mod(stacked[num_polys:], xs[np.newaxis, :], modulus)
        ) % m
    if modulus == _M61 and int(xs.max()) < (1 << 29):
        return _horner_m61_small_x(coefficients % m, xs)
    result = np.zeros((coefficients.shape[0], xs.shape[0]), dtype=np.uint64)
    for column in range(coefficients.shape[1] - 1, -1, -1):
        result = mul_mod(result, xs[np.newaxis, :], modulus)
        # result < m <= 2^61 and coefficient < m, so the sum fits uint64.
        result = (result + coefficients[:, column : column + 1] % m) % m
    return result


def _horner_m61_small_x(
    coefficients: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """Horner over ``GF(2^61 - 1)`` with lazy reduction for small points.

    Shamir evaluation points are tiny (``x = 1..num_shares``), so the
    accumulator can run *unreduced* below ``2^63``: with ``r = rh·2^32 +
    rl`` the step ``r·x`` becomes ``(w >> 29) + ((w mod 2^29) << 32) +
    rl·x`` for ``w = rh·x`` — exact modulo the Mersenne prime because
    ``2^61 ≡ 1`` — and the invariant ``r < 2^63`` holds for ``x < 2^29``
    with every intermediate inside uint64.  One final ``% p`` canonises
    the result; no per-step division at all.
    """
    mask29 = np.uint64((1 << 29) - 1)
    shift29 = np.uint64(29)
    xs = xs[np.newaxis, :]
    result = np.zeros((coefficients.shape[0], xs.shape[1]), dtype=np.uint64)
    high = np.empty_like(result)
    scratch = np.empty_like(result)
    for column in range(coefficients.shape[1] - 1, -1, -1):
        np.right_shift(result, _LIMB_SHIFT, out=high)
        np.multiply(high, xs, out=high)
        result &= _LIMB_MASK
        result *= xs
        np.right_shift(high, shift29, out=scratch)
        result += scratch
        high &= mask29
        high <<= _LIMB_SHIFT
        result += high
        result += coefficients[:, column : column + 1]
    return result % _M61_U64


def sum_mod(values: np.ndarray, modulus: int, axis: int = 0) -> np.ndarray:
    """Overflow-safe ``values.sum(axis) mod m`` for entries in ``[0, m)``.

    int64/uint64 sums of many near-modulus entries overflow, so the
    reduction runs in chunks of at most ``2^63 // m`` rows, reducing
    modulo ``m`` between chunks — exact for every ``m <= 2^63`` (no
    multiplication, so not bound by :data:`LIMB_SPLIT_MAX_MODULUS`).
    """
    if not 2 <= modulus <= 1 << 63:
        raise ConfigurationError(
            f"modulus must lie in [2, 2**63], got {modulus}"
        )
    m = np.uint64(modulus)
    values = np.asarray(values, dtype=np.uint64)
    if values.shape[axis] == 0:
        return np.zeros(
            tuple(np.delete(values.shape, axis)), dtype=np.uint64
        )
    chunk = max(1, (1 << 63) // int(modulus))
    values = np.moveaxis(values, axis, 0)
    total = np.zeros(values.shape[1:], dtype=np.uint64)
    for start in range(0, values.shape[0], chunk):
        total = (total + values[start : start + chunk].sum(axis=0)) % m
    return total


def _validate_modulus(modulus: int) -> None:
    if modulus < 2 or modulus % 2 != 0:
        raise ConfigurationError(
            f"modulus must be an even integer >= 2, got {modulus}"
        )


def encode_mod(values: np.ndarray, modulus: int) -> np.ndarray:
    """Reduce integer values into ``Z_m = {0, ..., m-1}``.

    Args:
        values: Integer array (any signed values).
        modulus: The SecAgg modulus ``m``.

    Returns:
        An int64 array with every entry in ``[0, m)``.
    """
    _validate_modulus(modulus)
    encoded = np.mod(np.asarray(values, dtype=np.int64), modulus)
    return encoded.astype(np.int64)


def decode_centered(residues: np.ndarray, modulus: int) -> np.ndarray:
    """Map residues in ``Z_m`` to the centred interval ``[-m/2, m/2)``.

    Args:
        residues: Integer array with entries in ``[0, m)``.
        modulus: The SecAgg modulus ``m``.

    Returns:
        An int64 array with entries in ``[-m/2, m/2)``.

    Raises:
        ConfigurationError: If any residue lies outside ``[0, m)``.
    """
    _validate_modulus(modulus)
    residues = np.asarray(residues, dtype=np.int64)
    if residues.size and (residues.min() < 0 or residues.max() >= modulus):
        raise ConfigurationError(
            f"residues must lie in [0, {modulus}), got range "
            f"[{residues.min()}, {residues.max()}]"
        )
    half = modulus // 2
    return np.where(residues >= half, residues - modulus, residues).astype(np.int64)


def wraps_around(values: np.ndarray, modulus: int) -> bool:
    """Return True if any value lies outside the decodable centred range.

    A sum that leaves ``[-m/2, m/2)`` cannot be recovered from its residue;
    the mechanisms use this predicate to emit :class:`repro.errors.OverflowWarning`.
    """
    _validate_modulus(modulus)
    values = np.asarray(values)
    half = modulus // 2
    return bool(np.any(values < -half) or np.any(values >= half))
