"""Shamir t-out-of-n secret sharing over a prime field.

The Bonawitz et al. SecAgg protocol (Section 4 of their paper; our
:mod:`repro.secagg.bonawitz`) distributes two secrets per participant —
the self-mask seed ``b_u`` and the pairwise-mask private key ``s_u^SK`` —
as Shamir shares, so the server can recover exactly one of the two for
each participant during dropout recovery, with any ``t`` of the surviving
participants' shares.

A degree-``t - 1`` polynomial ``f`` with ``f(0) = secret`` is sampled
uniformly; participant ``i`` receives the share ``(i, f(i))``.  Any ``t``
shares determine ``f`` (and hence the secret) by Lagrange interpolation;
any ``t - 1`` shares are jointly uniform and reveal nothing.

This module is the one Shamir implementation.  Both directions are one
exact modular matrix product (:func:`repro.linalg.modular.matmul_mod`):
:func:`split_secrets` evaluates every secret's polynomial at the points
with :func:`~repro.linalg.modular.horner_mod` (coefficients times the
memoised powers of the points), and :func:`reconstruct_secrets`
multiplies every share row by one Lagrange weight vector
(:func:`lagrange_weights_at_zero`).  Every other entry point — one
secret, a multi-limb secret, a quorum's worth of both — is a call into
those two.  Two validators guard them, one for what is split and one for
the points and values that are reconstructed, and both run on the
Python values before anything is cast to uint64; a
:class:`~repro.secagg.field.PrimeField` the kernels could not carry does
not construct.

Dropout recovery reconstructs many secrets — a seed per survivor, every
limb of every dropout's key — from one quorum; :func:`reconstruct_quorum`
is the one routine for that (:func:`reconstruct_large_secret` is its
one-secret case), so an unmask phase computes its Lagrange weights once.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

from repro.errors import AggregationError, ConfigurationError
from repro.linalg.modular import horner_mod, matmul_mod
from repro.secagg.field import DEFAULT_FIELD, PrimeField


class Share(NamedTuple):
    """One Shamir share ``(x, f(x))``.

    The one-secret API's currency (:func:`split_secret`,
    :func:`reconstruct_secret`).  The protocol builds none: a round's
    quadratically many shares travel as matrices (:func:`split_secrets`),
    a client holds the rows it was sent as decoded words, and the server
    reconstructs from columns (:func:`reconstruct_quorum`).

    Attributes:
        x: The (nonzero) evaluation point identifying the recipient.
        y: The polynomial value at ``x``.
    """

    x: int
    y: int


class LimbShares(NamedTuple):
    """One recipient's shares of a large (multi-limb) secret.

    Large secrets — e.g. 1024-bit Diffie-Hellman private keys — do not
    fit in one field element, so they are decomposed into base-``2^b``
    limbs and each limb is Shamir-shared independently.  All limbs use
    the same evaluation point ``x``, so one recipient holds one
    :class:`LimbShares` per secret.

    Attributes:
        x: The recipient's evaluation point.
        ys: Per-limb polynomial values, lowest limb first.
    """

    x: int
    ys: tuple[int, ...]


#: Limb width used for large-secret sharing over the default 61-bit field.
DEFAULT_LIMB_BITS = 60


def _integers(
    values: Iterable, error: type[Exception], what: str
) -> list[int]:
    """``values`` as Python ints, or ``error``: a float, a nested row or
    a scalar where a sequence belongs is refused, never cast."""
    try:
        return list(map(operator.index, values))
    except TypeError:
        raise error(
            f"{what} must be a sequence of integers, got {values!r}"
        ) from None


def _check_split(
    secrets: Iterable[int], threshold: int, num_shares: int, prime: int
) -> list[int]:
    """The split validator; returns the secrets as Python ints."""
    values = _integers(secrets, ConfigurationError, "secrets")
    for secret in values:
        if not 0 <= secret < prime:
            raise ConfigurationError(
                f"secret must lie in [0, {prime}), got {secret}"
            )
    if threshold < 1:
        raise ConfigurationError(f"threshold must be >= 1, got {threshold}")
    if num_shares < threshold:
        raise ConfigurationError(
            f"cannot issue {num_shares} shares with threshold {threshold}"
        )
    if num_shares >= prime:
        raise ConfigurationError(
            f"at most {prime - 1} shares exist over GF({prime})"
        )
    return values


def _check_shares(
    xs: Iterable[int], ys_rows: Iterable[Iterable[int]], prime: int
) -> tuple[list[int], list[list[int]]]:
    """The point/value validator; returns points and rows as Python ints.

    The points are checked even when there is no row, and the values
    before any array is built, so a value beyond uint64 is a typed
    refusal rather than numpy's OverflowError.
    """
    points = _integers(xs, AggregationError, "share points")
    if not points:
        raise AggregationError("cannot reconstruct from zero shares")
    if len(set(points)) != len(points):
        raise AggregationError(f"duplicate share points: {sorted(points)}")
    for x in points:
        if not 0 < x < prime:
            raise AggregationError(f"share point {x} outside (0, {prime})")
    rows = [
        _integers(row, AggregationError, "share values") for row in ys_rows
    ]
    if any(len(row) != len(points) for row in rows):
        raise AggregationError(
            "share rows and points disagree: "
            f"{sorted({len(row) for row in rows})} values vs "
            f"{len(points)} points"
        )
    for row in rows:
        if min(row) < 0 or max(row) >= prime:
            bad = next(y for y in row if not 0 <= y < prime)
            raise AggregationError(f"share value {bad} outside [0, {prime})")
    return points, rows


def split_secrets(
    secrets: Sequence[int],
    threshold: int,
    num_shares: int,
    rng: np.random.Generator,
    field: PrimeField = DEFAULT_FIELD,
) -> np.ndarray:
    """Share many secrets over the same points in one matrix product.

    One independent uniform degree-``threshold - 1`` polynomial per
    secret, all evaluated at ``x = 1..num_shares``: the ``(k, t)``
    coefficients times the ``(t, n)`` powers of the points, which every
    split over the same ``(t, n)`` shares.  The coefficients are one
    ``rng.integers`` draw of shape ``(k, t - 1)``, so the shares are a
    function of the generator's state alone.

    Args:
        secrets: Integers in ``[0, field.prime)``, one polynomial each.
        threshold: Reconstruction threshold ``t``.
        num_shares: Number of recipients ``n`` (points ``x = 1..n``).
        rng: Polynomial randomness.
        field: Field to share over.

    Returns:
        ``(len(secrets), num_shares)`` uint64 matrix; entry ``[i, j]``
        is secret ``i``'s share value at ``x = j + 1``.

    Raises:
        ConfigurationError: If a secret is not an integer in the field,
            the threshold lies outside ``[1, num_shares]``, or more
            shares are requested than field elements permit.
    """
    values = _check_split(secrets, threshold, num_shares, field.prime)
    coefficients = np.empty((len(values), threshold), dtype=np.uint64)
    coefficients[:, 0] = values
    if threshold > 1:
        coefficients[:, 1:] = rng.integers(
            0, field.prime, size=(len(values), threshold - 1), dtype=np.uint64
        )
    xs = np.arange(1, num_shares + 1, dtype=np.uint64)
    return horner_mod(coefficients, xs, field.prime)


def split_secret(
    secret: int,
    threshold: int,
    num_shares: int,
    rng: np.random.Generator,
    field: PrimeField = DEFAULT_FIELD,
) -> list[Share]:
    """Split ``secret`` into ``num_shares`` shares, any ``threshold`` of
    which reconstruct it: the one-secret case of :func:`split_secrets`.

    Returns:
        Shares at evaluation points ``x = 1..num_shares``.

    Raises:
        ConfigurationError: As :func:`split_secrets`.
    """
    ys = split_secrets([secret], threshold, num_shares, rng, field)[0]
    return [Share(x=x, y=y) for x, y in enumerate(ys.tolist(), start=1)]


def _secret_limbs(
    secret: int, field: PrimeField, limb_bits: int = DEFAULT_LIMB_BITS
) -> list[int]:
    """Base-``2^limb_bits`` decomposition, lowest limb first, >= 1 limb.

    Raises:
        ConfigurationError: On a negative secret or a limb width that
            does not fit the field.
    """
    if secret < 0:
        raise ConfigurationError(f"secret must be >= 0, got {secret}")
    if not 1 <= limb_bits or (1 << limb_bits) > field.prime:
        raise ConfigurationError(
            f"limb width {limb_bits} does not fit GF({field.prime})"
        )
    limbs: list[int] = []
    remaining = secret
    while True:
        limbs.append(remaining & ((1 << limb_bits) - 1))
        remaining >>= limb_bits
        if remaining == 0:
            break
    return limbs


def split_large_secret(
    secret: int,
    threshold: int,
    num_shares: int,
    rng: np.random.Generator,
    field: PrimeField = DEFAULT_FIELD,
    limb_bits: int = DEFAULT_LIMB_BITS,
) -> list[LimbShares]:
    """Share a non-negative integer of arbitrary size.

    The secret is decomposed into base-``2^limb_bits`` limbs; each limb is
    shared with an independent random polynomial (all limbs in one
    :func:`split_secrets` call).  At least one limb is always produced so
    zero-valued secrets round-trip.

    Args:
        secret: Non-negative integer (any size).
        threshold: Reconstruction threshold ``t``.
        num_shares: Number of recipients ``n``.
        rng: Polynomial randomness.
        field: Field for each limb; ``2^limb_bits`` must not exceed it.
        limb_bits: Bits per limb.

    Returns:
        One :class:`LimbShares` per recipient (``x = 1..num_shares``).

    Raises:
        ConfigurationError: On a negative secret or a limb width that does
            not fit the field.
    """
    limbs = _secret_limbs(secret, field, limb_bits)
    # (num_limbs, num_shares): one row of share values per limb.
    per_limb = split_secrets(limbs, threshold, num_shares, rng, field)
    return [
        LimbShares(x=x, ys=tuple(column))
        for x, column in enumerate(per_limb.T.tolist(), start=1)
    ]


def lagrange_weights_at_zero(xs: Iterable[int], prime: int) -> np.ndarray:
    """Lagrange weights ``l_i(0)`` for distinct points ``xs``.

    ``l_i(0) = Π_{j≠i} x_j / (x_j - x_i) = (Π_j x_j) / (x_i Π_{j≠i}
    (x_j - x_i)) mod p``.  Plain Python integers: each denominator is
    one unreduced product and one ``pow(·, -1, p)``, which for a quorum
    of tens of points beats uint64 array passes and Fermat ladders
    several times over.  This function computes what it is asked every
    time; sharing one weight vector across every secret a quorum reveals
    is the callers' job — :func:`reconstruct_secrets` per call, and
    :func:`reconstruct_quorum` once per unmask phase.

    Args:
        xs: ``(t,)`` distinct integer points in ``(0, prime)``.
        prime: Field modulus, at most ``2^61``.

    Returns:
        ``(t,)`` uint64 weights such that ``f(0) = Σ_i w_i f(x_i)``.

    Raises:
        AggregationError: On no points, or on non-integer, duplicate,
            zero or out-of-field points.
    """
    points, _ = _check_shares(xs, (), prime)
    product_all = math.prod(points) % prime
    weights = [
        product_all
        * pow(
            x_i * math.prod([x_j - x_i for x_j in points if x_j != x_i]),
            -1,
            prime,
        )
        % prime
        for x_i in points
    ]
    return np.asarray(weights, dtype=np.uint64)


def reconstruct_secrets(
    xs: Sequence[int],
    ys_rows: Sequence[Sequence[int]],
    field: PrimeField = DEFAULT_FIELD,
) -> list[int]:
    """Reconstruct many secrets whose shares sit at the same points.

    The dropout-recovery workhorse: the server holds shares from one
    fixed responder set, so every secret (per-survivor seeds, per-limb
    key values) shares the evaluation points, and the reconstruction is
    one matrix product — the ``(k, t)`` share rows times the ``(t, 1)``
    Lagrange weights of the points.  The caller is responsible for
    supplying at least ``threshold`` shares; fewer reconstruct *some*
    polynomial but yield an unrelated (uniform) value, which is the
    security property, not an error the math can detect.

    Args:
        xs: Distinct nonzero share points, shared by all secrets.
        ys_rows: One row of share values per secret, aligned with ``xs``.
        field: The field the shares live in.

    Returns:
        One reconstructed secret per row.

    Raises:
        AggregationError: On zero shares, on non-integer, duplicate or
            out-of-field points or values, or on rows whose length is not
            the number of points.
    """
    points, rows = _check_shares(xs, ys_rows, field.prime)
    if not rows:
        return []
    weights = lagrange_weights_at_zero(points, field.prime)
    values = matmul_mod(
        np.asarray(rows, dtype=np.uint64), weights[:, np.newaxis], field.prime
    )
    return values[:, 0].tolist()


def reconstruct_secret(
    shares: Iterable[Share], field: PrimeField = DEFAULT_FIELD
) -> int:
    """Recover the secret ``f(0)`` from at least ``threshold`` shares:
    the one-secret case of :func:`reconstruct_secrets`.

    Raises:
        AggregationError: As :func:`reconstruct_secrets`.
    """
    shares = list(shares)
    (secret,) = reconstruct_secrets(
        [share.x for share in shares], [[share.y for share in shares]], field
    )
    return secret


def reconstruct_quorum(
    xs: Sequence[int],
    scalar_rows: Sequence[Sequence[int]],
    limb_share_sets: Sequence[Sequence[LimbShares]],
    field: PrimeField = DEFAULT_FIELD,
    limb_bits: int = DEFAULT_LIMB_BITS,
) -> tuple[list[int], list[int]]:
    """Everything one quorum reveals, from one Lagrange weight vector.

    An unmask phase hands the server, from the same ``t`` responders,
    one share of every survivor's self-mask seed and one
    :class:`LimbShares` of every dropout's mask key.  All of them sit at
    the responders' points, so every seed row and every limb row goes
    into a single :func:`reconstruct_secrets` call: the weights are
    computed once however many clients dropped.

    Args:
        xs: The quorum's distinct nonzero share points.
        scalar_rows: One row of share values per one-element secret,
            aligned with ``xs``.
        limb_share_sets: Per large secret, one :class:`LimbShares` per
            quorum member, aligned with ``xs``.
        field: Field everything was shared over.
        limb_bits: Limb width used at split time.

    Returns:
        ``(scalars, large)``: one value per scalar row, one reassembled
        integer per limb-share set.

    Raises:
        AggregationError: On zero shares, limb counts that disagree
            within a set, a limb share that does not sit at its quorum
            member's point, or anything :func:`reconstruct_secrets`
            refuses.
    """
    xs = list(xs)
    rows = list(scalar_rows)
    num_scalars = len(rows)
    limb_counts = []
    for shares in limb_share_sets:
        if not shares:
            raise AggregationError("cannot reconstruct from zero shares")
        num_limbs = len(shares[0].ys)
        if any(len(share.ys) != num_limbs for share in shares):
            raise AggregationError("limb counts disagree across shares")
        if [share.x for share in shares] != xs:
            raise AggregationError(
                f"limb shares at points {[share.x for share in shares]} "
                f"do not sit at the quorum's points {xs}"
            )
        rows.extend(zip(*[share.ys for share in shares]))
        limb_counts.append(num_limbs)
    values = reconstruct_secrets(xs, rows, field)
    cursor = num_scalars
    large = []
    for num_limbs in limb_counts:
        secret = 0
        for limb in reversed(values[cursor : cursor + num_limbs]):
            secret = (secret << limb_bits) | limb
        large.append(secret)
        cursor += num_limbs
    return values[:num_scalars], large


def reconstruct_large_secret(
    shares: Iterable[LimbShares],
    field: PrimeField = DEFAULT_FIELD,
    limb_bits: int = DEFAULT_LIMB_BITS,
) -> int:
    """Recover a large secret from at least ``threshold`` limb-share sets:
    the one-secret case of :func:`reconstruct_quorum`.

    Args:
        shares: :class:`LimbShares` from distinct recipients, all with the
            same number of limbs.
        field: Field the limbs were shared over.
        limb_bits: Limb width used at split time.

    Returns:
        The reassembled integer.

    Raises:
        AggregationError: If share sets disagree on the limb count or are
            otherwise malformed.
    """
    shares = list(shares)
    _, (secret,) = reconstruct_quorum(
        [share.x for share in shares], [], [shares], field, limb_bits
    )
    return secret
