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

Everything runs on the **vectorised kernels**
(:mod:`repro.secagg.kernels`), where both directions are one exact
modular matrix product (:func:`repro.linalg.modular.matmul_mod`):
splitting is coefficients times the powers of the public points,
reconstructing is share rows times one Lagrange weight vector; a
:class:`~repro.secagg.field.PrimeField` they could not carry does not
construct.  The **scalar references** (:func:`split_secret_scalar`,
:func:`reconstruct_secret_scalar`) — the original per-share,
per-coefficient loops over Python integers — are retained as the
equivalence baseline the property tests (``tests/test_shamir.py``)
drive against the kernels; nothing in ``src/`` selects them.

Dropout recovery reconstructs many secrets — a seed per survivor, every
limb of every dropout's key — from one quorum; :func:`reconstruct_quorum`
is the one routine for that (:func:`reconstruct_large_secret` is its
one-secret case), so an unmask phase computes its Lagrange weights once.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

from repro.errors import AggregationError, ConfigurationError
from repro.secagg import kernels
from repro.secagg.field import DEFAULT_FIELD, PrimeField


class Share(NamedTuple):
    """One Shamir share ``(x, f(x))``.

    The one-secret API's currency (:func:`split_secret`,
    :func:`reconstruct_secret`, the scalar references).  The protocol
    builds none: a round's quadratically many shares travel as matrices
    (:func:`split_secrets`), a client holds the rows it was sent as
    decoded words, and the server reconstructs from columns
    (:func:`reconstruct_quorum`).

    Attributes:
        x: The (nonzero) evaluation point identifying the recipient.
        y: The polynomial value at ``x``.
    """

    x: int
    y: int


def _validate_split_parameters(
    secret: int, threshold: int, num_shares: int, field: PrimeField
) -> None:
    if not 0 <= secret < field.prime:
        raise ConfigurationError(
            f"secret must lie in [0, {field.prime}), got {secret}"
        )
    if threshold < 1:
        raise ConfigurationError(f"threshold must be >= 1, got {threshold}")
    if num_shares < threshold:
        raise ConfigurationError(
            f"cannot issue {num_shares} shares with threshold {threshold}"
        )
    if num_shares >= field.prime:
        raise ConfigurationError(
            f"at most {field.prime - 1} shares exist over GF({field.prime})"
        )


def split_secret_scalar(
    secret: int,
    threshold: int,
    num_shares: int,
    rng: np.random.Generator,
    field: PrimeField = DEFAULT_FIELD,
) -> list[Share]:
    """Scalar reference split: per-coefficient draws, per-share Horner.

    The pre-kernel seed implementation, retained verbatim.  Produces
    shares with the same distribution as :func:`split_secret` (both
    sample uniform polynomials) and identical reconstructions.
    """
    _validate_split_parameters(secret, threshold, num_shares, field)
    # Coefficients a_0 = secret, a_1..a_{t-1} uniform: f of degree t-1.
    coefficients = [secret] + [
        int(rng.integers(0, field.prime)) for _ in range(threshold - 1)
    ]
    return [
        Share(x=x, y=field.evaluate_polynomial(coefficients, x))
        for x in range(1, num_shares + 1)
    ]


def split_secret(
    secret: int,
    threshold: int,
    num_shares: int,
    rng: np.random.Generator,
    field: PrimeField = DEFAULT_FIELD,
) -> list[Share]:
    """Split ``secret`` into ``num_shares`` shares, any ``threshold`` of
    which reconstruct it.

    Args:
        secret: The secret, an integer in ``[0, field.prime)``.
        threshold: Minimum number of shares needed to reconstruct (``t``).
        num_shares: Total number of shares issued (``n``).
        rng: Source of the random polynomial coefficients.
        field: The field to share over.

    Returns:
        Shares at evaluation points ``x = 1..num_shares``.

    Raises:
        ConfigurationError: If the parameters are inconsistent (threshold
            outside ``[1, num_shares]``, secret outside the field, or more
            shares requested than field elements permit).
    """
    _validate_split_parameters(secret, threshold, num_shares, field)
    ys = kernels.batched_split(
        np.asarray([secret], dtype=np.uint64),
        threshold,
        num_shares,
        rng,
        field.prime,
    )[0]
    return [Share(x=x, y=int(ys[x - 1])) for x in range(1, num_shares + 1)]


def split_secrets(
    secrets: Sequence[int],
    threshold: int,
    num_shares: int,
    rng: np.random.Generator,
    field: PrimeField = DEFAULT_FIELD,
) -> np.ndarray:
    """Share many secrets over the same points in one vectorised call.

    Args:
        secrets: Secrets in ``[0, field.prime)``, one polynomial each.
        threshold: Reconstruction threshold ``t``.
        num_shares: Number of recipients ``n`` (points ``x = 1..n``).
        rng: Polynomial randomness.
        field: Field to share over.

    Returns:
        ``(len(secrets), num_shares)`` integer matrix; entry ``[i, j]``
        is secret ``i``'s share value at ``x = j + 1``.
    """
    for secret in secrets:
        _validate_split_parameters(int(secret), threshold, num_shares, field)
    return kernels.batched_split(
        np.asarray(secrets, dtype=np.uint64),
        threshold,
        num_shares,
        rng,
        field.prime,
    )


def _check_points(xs: Sequence[int], field: PrimeField) -> None:
    if not xs:
        raise AggregationError("cannot reconstruct from zero shares")
    if len(set(xs)) != len(xs):
        raise AggregationError(f"duplicate share points: {sorted(xs)}")
    for x in xs:
        if not 0 < x < field.prime:
            raise AggregationError(
                f"share point {x} outside (0, {field.prime})"
            )


def _check_values(ys: Sequence[int], field: PrimeField) -> None:
    if min(ys) < 0 or max(ys) >= field.prime:
        bad = next(y for y in ys if not 0 <= y < field.prime)
        raise AggregationError(
            f"share value {bad} outside [0, {field.prime})"
        )


def _check_shares(shares: Sequence[Share], field: PrimeField) -> None:
    _check_points([share.x for share in shares], field)
    _check_values([share.y for share in shares], field)


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


def _secret_limbs(secret: int, limb_bits: int) -> list[int]:
    """Base-``2^limb_bits`` decomposition, lowest limb first, >= 1 limb."""
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
    vectorised kernel call).  At least one limb is always produced so
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
    if secret < 0:
        raise ConfigurationError(f"secret must be >= 0, got {secret}")
    if not 1 <= limb_bits or (1 << limb_bits) > field.prime:
        raise ConfigurationError(
            f"limb width {limb_bits} does not fit GF({field.prime})"
        )
    limbs = _secret_limbs(secret, limb_bits)
    # (num_limbs, num_shares): one row of share values per limb.
    per_limb = split_secrets(limbs, threshold, num_shares, rng, field)
    return [
        LimbShares(
            x=x,
            ys=tuple(int(per_limb[k, x - 1]) for k in range(len(limbs))),
        )
        for x in range(1, num_shares + 1)
    ]


def reconstruct_large_secret(
    shares: Iterable[LimbShares],
    field: PrimeField = DEFAULT_FIELD,
    limb_bits: int = DEFAULT_LIMB_BITS,
) -> int:
    """Recover a large secret from at least ``threshold`` limb-share sets.

    The one-secret case of :func:`reconstruct_quorum`.

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
            refuses (duplicate/out-of-field points, out-of-field values,
            ragged rows).
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


def reconstruct_secret_scalar(
    shares: Iterable[Share], field: PrimeField = DEFAULT_FIELD
) -> int:
    """Scalar reference reconstruction: per-pair Lagrange loops.

    The pre-kernel seed implementation, retained verbatim; the property
    suite asserts it agrees with :func:`reconstruct_secret` share for
    share.
    """
    shares = list(shares)
    _check_shares(shares, field)
    secret = 0
    for i, share_i in enumerate(shares):
        numerator = 1
        denominator = 1
        for j, share_j in enumerate(shares):
            if i == j:
                continue
            numerator = field.mul(numerator, field.neg(share_j.x))
            denominator = field.mul(
                denominator, field.sub(share_i.x, share_j.x)
            )
        weight = field.mul(numerator, field.inv(denominator))
        secret = field.add(secret, field.mul(share_i.y, weight))
    return secret


def reconstruct_secret(
    shares: Iterable[Share], field: PrimeField = DEFAULT_FIELD
) -> int:
    """Recover the secret from at least ``threshold`` shares.

    Lagrange interpolation at ``x = 0``.  The caller is responsible for
    supplying at least ``threshold`` shares; fewer shares reconstruct
    *some* polynomial but yield an unrelated (uniform) value, which is the
    security property, not an error the math can detect.

    Args:
        shares: Distinct shares of one secret.
        field: The field the shares live in.

    Returns:
        The reconstructed secret ``f(0)``.

    Raises:
        AggregationError: On duplicate or out-of-field shares.
    """
    shares = list(shares)
    _check_shares(shares, field)
    result = kernels.batched_reconstruct(
        np.asarray([share.x for share in shares], dtype=np.uint64),
        np.asarray([[share.y for share in shares]], dtype=np.uint64),
        field.prime,
    )
    return int(result[0])


def reconstruct_secrets(
    xs: Sequence[int],
    ys_rows: Sequence[Sequence[int]],
    field: PrimeField = DEFAULT_FIELD,
) -> list[int]:
    """Reconstruct many secrets whose shares sit at the same points.

    The dropout-recovery workhorse: the server holds shares from one
    fixed responder set, so every secret (per-survivor seeds, per-limb
    key values) shares the evaluation points and the Lagrange weights
    are computed once.

    Args:
        xs: Distinct nonzero share points, shared by all secrets.
        ys_rows: One row of share values per secret, aligned with ``xs``.
        field: The field the shares live in.

    Returns:
        One reconstructed secret per row.

    Raises:
        AggregationError: On duplicate/out-of-field points, inconsistent
            row lengths, or zero shares.
    """
    xs = list(xs)
    rows = [list(row) for row in ys_rows]
    if any(len(row) != len(xs) for row in rows):
        raise AggregationError(
            "share rows and points disagree: "
            f"{sorted({len(row) for row in rows})} values vs {len(xs)} points"
        )
    if not rows:
        return []
    # Every share is checked as Python integers before any array is
    # built: a value beyond uint64 must be a typed refusal, not numpy's
    # OverflowError.
    _check_points(xs, field)
    for row in rows:
        _check_values(row, field)
    result = kernels.batched_reconstruct(
        np.asarray(xs, dtype=np.uint64),
        np.asarray(rows, dtype=np.uint64),
        field.prime,
    )
    return result.tolist()
