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

*Field kernels.* SecAgg runs Shamir share generation and Lagrange
reconstruction (:mod:`repro.secagg.shamir`), and its batched
Diffie-Hellman exponentiations (:mod:`repro.secagg.keys`), as numpy
array programs over the 61-bit prime field.
Products of two 61-bit residues need 122 bits, which uint64 cannot hold,
so :func:`mul_mod` splits each operand into two limbs and recombines the
partial products without ever leaving uint64 — exact modular
multiplication without arbitrary-precision integers.  Over the default
field ``GF(2^61 - 1)`` the recombination is a *Mersenne fold*
(:func:`_mul_mod_m61`, :func:`_sqr_mod_m61`): ``2^61 ≡ 1``, so a term
weighted ``2^k`` is brought back under ``2^61`` by one shift and one
mask, no carry is ever formed and one final ``% p`` canonises the sum.
At the few dozen lanes one SecAgg client carries a numpy call costs
~0.6 us whatever it does, so the kernels are written for call count: 17
calls a multiply, 13 a squaring, and :func:`pow_mod` /
:func:`pow_mod_elementwise` call them directly.  Any other modulus up
to ``2^61`` takes the general shift-and-mod path (:func:`_shift32_mod`).

A *matrix* product (:func:`matmul_mod` — Shamir split is coefficients
times powers of the points, reconstruction is share rows times Lagrange
weights) goes through BLAS instead.  Residues below ``2^63`` split into
three 21-bit limbs held as float64; a product of two limbs is below
``2^42``, so a sum of at most ``2^11`` of them is an integer below
``2^53`` — as is every partial sum on the way, which is why float64 is
exact here in *whatever* order (and with whatever fused multiply-adds)
the library accumulates.  One ``@`` over the stacked limbs forms all
nine limb products, contractions longer than ``2^11`` go in blocks of
that many terms, and the limb products recombine in uint64: the at most
three that share a weight ``2^21w`` add up below ``2^55`` and are folded
by :func:`mul_mod`'s own kernel.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import ConfigurationError

#: Largest modulus the limb-split kernels support.  Operands live in
#: ``[0, m)``; with ``m <= 2^61`` every intermediate (cross-limb partial
#: products, 3-bit shift-reduce steps) provably fits in uint64.
LIMB_SPLIT_MAX_MODULUS = 1 << 61

_LIMB_MASK = np.uint64((1 << 32) - 1)
_LIMB_SHIFT = np.uint64(32)

#: Mersenne prime 2^61 - 1 — the default SecAgg field modulus, with a
#: dedicated fast reduction (2^61 ≡ 1 lets the 122-bit product fold into
#: 64 bits with shifts instead of repeated division).
_M61 = (1 << 61) - 1
_M61_U64 = np.uint64(_M61)

# Shifts and masks of the Mersenne fold: operands split at bit 31, the
# cross term of a product at bit 30 and of a squaring at bit 29 (its
# low part then goes back up by the 32 of ``_LIMB_SHIFT``).
_ONE = np.uint64(1)
_SHIFT29, _MASK29 = np.uint64(29), np.uint64((1 << 29) - 1)
_SHIFT30, _MASK30 = np.uint64(30), np.uint64((1 << 30) - 1)
_SHIFT31, _MASK31 = np.uint64(31), np.uint64((1 << 31) - 1)

# :func:`matmul_mod`: 21-bit limbs, and the longest contraction whose
# limb products still sum below 2^53 (2^42 a product, 2^11 of them).
_SHIFT21, _SHIFT42 = np.uint64(21), np.uint64(42)
_MASK21 = np.uint64((1 << 21) - 1)
_MATMUL_BLOCK = 1 << 11


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

    Mersenne fold.  With ``a = a1·2^31 + a0`` and ``b = b1·2^31 + b0``
    (``a1, b1 < 2^30``; ``a0, b0 < 2^31``)

    ``a·b = a1·b1·2^62 + (a1·b0 + a0·b1)·2^31 + a0·b0``

    and, because ``2^61 ≡ 1``, each term folds below ``2^62`` with no
    carry between them:

    * ``a1·b1 < 2^60`` and ``2^62 ≡ 2``: the term is ``2·a1·b1 < 2^61``;
    * ``mid = a1·b0 + a0·b1 < 2^62``; writing ``mid = h·2^30 + l`` gives
      ``mid·2^31 = h·2^61 + l·2^31 ≡ h + l·2^31`` with ``h < 2^32`` and
      ``l·2^31 < 2^61``;
    * ``a0·b0 < 2^62`` needs no folding at all.

    The four add up to less than ``2^63 + 2^32``, so every intermediate
    fits uint64 — nothing wraps, which also keeps numpy *scalars* (0-d
    operands) free of overflow warnings — and one ``% p`` canonises the
    sum.  In-place steps touch only arrays this function created, and
    every one of those already has the broadcast shape.
    """
    a1, a0 = a >> _SHIFT31, a & _MASK31
    b1, b0 = b >> _SHIFT31, b & _MASK31
    mid = a1 * b0
    mid += a0 * b1
    total = a1 * b1
    total <<= _ONE
    total += a0 * b0
    total += mid >> _SHIFT30
    mid &= _MASK30
    mid <<= _SHIFT31
    total += mid
    total %= _M61_U64
    return total


def _sqr_mod_m61(a: np.ndarray) -> np.ndarray:
    """``(a * a) mod (2^61 - 1)`` for ``a`` already in ``[0, 2^61)``.

    :func:`_mul_mod_m61` with the two cross products merged: ``a^2 =
    a1^2·2^62 + a1·a0·2^32 + a0^2``, three partial products instead of
    four.  ``mid = a1·a0 < 2^61``; writing ``mid = h·2^29 + l`` gives
    ``mid·2^32 ≡ h + l·2^32`` with ``h < 2^32`` and ``l·2^32 < 2^61``,
    so the sum is again below ``2^63 + 2^32``.  The square step of every
    exponentiation below — two thirds of its multiplications — runs
    through here.
    """
    a1, a0 = a >> _SHIFT31, a & _MASK31
    mid = a1 * a0
    total = a1 * a1
    total <<= _ONE
    total += a0 * a0
    total += mid >> _SHIFT29
    mid &= _MASK29
    mid <<= _LIMB_SHIFT
    total += mid
    total %= _M61_U64
    return total


def mul_mod(
    a: np.ndarray | int, b: np.ndarray | int, modulus: int
) -> np.ndarray:
    """Exact ``(a * b) mod m`` on uint64 arrays via limb splitting.

    Args:
        a: Residues (array or scalar; broadcast applies).  Values at or
            above ``m`` are reduced first.
        b: Residues, likewise.
        modulus: The modulus ``m``, at most :data:`LIMB_SPLIT_MAX_MODULUS`.

    Returns:
        ``(a * b) mod m`` as a uint64 array, exact even though the full
        128-bit product never materialises.  ``m = 2^61 - 1`` takes the
        Mersenne fold (:func:`_mul_mod_m61`); for any other modulus,
        with ``a = a1*2^32 + a0`` and ``b = b1*2^32 + b0``, the partial
        products ``a1*b1 < 2^58``, ``a1*b0 + a0*b1 < 2^62`` and ``a0*b0
        < 2^64`` each fit in uint64, and the radix recombination uses
        :func:`_shift32_mod`.

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


def _pow_kernels(modulus: int):
    """``(multiply, square)`` for operands already reduced mod ``m``.

    What the exponentiation loops below call once per bit: over
    ``GF(2^61 - 1)`` the two Mersenne-fold kernels themselves, with no
    per-call validation or re-reduction in between.
    """
    if modulus == _M61:
        return _mul_mod_m61, _sqr_mod_m61
    return (
        lambda a, b: mul_mod(a, b, modulus),
        lambda a: mul_mod(a, a, modulus),
    )


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
    multiply, square = _pow_kernels(modulus)
    base = np.asarray(base, dtype=np.uint64) % m
    result = np.ones_like(base)
    while exponent:
        if exponent & 1:
            result = multiply(result, base)
        exponent >>= 1
        if exponent:
            base = square(base)
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
    multiply, square = _pow_kernels(modulus)
    bases = np.asarray(bases, dtype=np.uint64) % m
    exponents = np.asarray(exponents, dtype=np.uint64)
    result = np.ones_like(bases)
    bits = int(exponents.max(initial=0)).bit_length()
    for bit in range(bits):
        bit_set = exponents & np.uint64(1 << bit)
        result = np.where(bit_set, multiply(result, bases), result)
        if bit + 1 < bits:
            bases = square(bases)
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


def _limbs21(values: np.ndarray) -> np.ndarray:
    """``(r, c)`` residues below ``2^63`` as ``(r, 3, c)`` float64 limbs.

    Limb ``i`` is bits ``21i .. 21i + 20``, lowest first; 21 bits is an
    integer float64 holds exactly.
    """
    limbs = np.empty((values.shape[0], 3, values.shape[1]), dtype=np.float64)
    limbs[:, 0] = values & _MASK21
    limbs[:, 1] = (values >> _SHIFT21) & _MASK21
    limbs[:, 2] = values >> _SHIFT42
    return limbs


def _matmul_limbs(
    left: np.ndarray, right: np.ndarray, modulus: int
) -> np.ndarray:
    """:func:`matmul_mod` on operands already split by :func:`_limbs21`:
    ``left`` is ``(k, 3, L)``, ``right`` is ``(L, 3, n)``."""
    m = np.uint64(modulus)
    rows, _, terms = left.shape
    columns = right.shape[2]
    multiply = _pow_kernels(modulus)[0]
    weights = np.array(
        [pow(2, 21 * w, modulus) for w in (1, 2, 3, 4)], dtype=np.uint64
    ).reshape(4, 1, 1)
    total = np.zeros((rows, columns), dtype=np.uint64)
    classes = np.empty((4, rows, columns), dtype=np.uint64)
    for start in range(0, terms, _MATMUL_BLOCK):
        stop = min(start + _MATMUL_BLOCK, terms)
        # One GEMM: entry [3a + i, 3b + j] is limb i of row a times limb
        # j of column b, an exact integer below 2^53.
        products = (
            left[:, :, start:stop].reshape(3 * rows, stop - start)
            @ right[start:stop].reshape(stop - start, 3 * columns)
        ).astype(np.uint64).reshape(rows, 3, 3, columns)
        # Limb products i, j weigh 2^(21(i + j)): classes 1..4 (at most
        # three products each, < 2^55) fold through the multiply kernel.
        np.add(products[:, 0, 1], products[:, 1, 0], out=classes[0])
        np.add(products[:, 0, 2], products[:, 1, 1], out=classes[1])
        classes[1] += products[:, 2, 0]
        np.add(products[:, 1, 2], products[:, 2, 1], out=classes[2])
        classes[3] = products[:, 2, 2]
        # total < 2^61, class 0 < 2^53, four folded classes < 2^63.
        total += products[:, 0, 0]
        total += multiply(classes, weights).sum(axis=0)
        total %= m
    return total


def matmul_mod(
    left: np.ndarray, right: np.ndarray, modulus: int
) -> np.ndarray:
    """Exact ``(left @ right) mod m`` through one float64 BLAS product.

    Args:
        left: ``(k, L)`` residues (values at or above ``m`` are reduced
            first).
        right: ``(L, n)`` residues, likewise.
        modulus: The modulus ``m``, at most :data:`LIMB_SPLIT_MAX_MODULUS`.

    Returns:
        The ``(k, n)`` uint64 product modulo ``m`` — exact for every
        contraction length (see the module docstring for why float64
        loses nothing here).

    Raises:
        ConfigurationError: If the modulus is outside ``[2, 2^61]`` or
            the operands are not matrices whose shapes agree.
    """
    m = _validate_field_modulus(modulus)
    left = np.asarray(left, dtype=np.uint64)
    right = np.asarray(right, dtype=np.uint64)
    if left.ndim != 2 or right.ndim != 2 or left.shape[1] != right.shape[0]:
        raise ConfigurationError(
            f"cannot multiply shapes {left.shape} and {right.shape}"
        )
    return _matmul_limbs(_limbs21(left % m), _limbs21(right % m), modulus)


@functools.lru_cache(maxsize=8)
def _power_limbs(points: bytes, terms: int, modulus: int) -> np.ndarray:
    """Limbs of the ``(terms, n)`` matrix ``x_j^i mod m``, memoised.

    A round evaluates every polynomial at the same public points (the
    roster positions ``1..n``), so each client after the first finds
    the matrix — already split for :func:`_matmul_limbs`, read-only —
    in the memo.  It holds no key material.  Rows double:
    ``x^(r + i) = x^r · x^i``.
    """
    step = np.frombuffer(points, dtype=np.uint64) % np.uint64(modulus)
    powers = np.ones((1, step.shape[0]), dtype=np.uint64)
    while powers.shape[0] < terms:
        powers = np.concatenate([powers, mul_mod(powers, step, modulus)])
        step = mul_mod(step, step, modulus)
    limbs = _limbs21(powers[:terms])
    limbs.flags.writeable = False
    return limbs


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
        ``(num_polys, num_points)`` uint64 matrix ``f_k(x_j) mod m``.
        The name is historical (``bench/`` times it): there is no
        recurrence over the degree, only ``coefficients @ powers``
        (:func:`matmul_mod`) against the memoised powers of the points.
    """
    m = _validate_field_modulus(modulus)
    coefficients = np.atleast_2d(np.asarray(coefficients, dtype=np.uint64))
    points = np.ascontiguousarray(xs, dtype=np.uint64).tobytes()
    powers = _power_limbs(points, coefficients.shape[1], modulus)
    return _matmul_limbs(_limbs21(coefficients % m), powers, modulus)


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
