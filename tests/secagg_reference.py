"""Scalar reference implementations the SecAgg property tests drive.

Nothing in ``src/`` selects these.  They are the original per-share,
per-coefficient and per-envelope loops over Python integers and bytes,
kept as oracles for the batched code: :mod:`repro.secagg.shamir`'s
matrix split and reconstruction, the envelope matrix codec of
:mod:`repro.secagg.bonawitz`, and
:func:`repro.secagg.kernels.keystream_batch`.  Import them as
``tests.secagg_reference`` (``python -m pytest`` puts the repository
root on ``sys.path``).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import AggregationError
from repro.secagg.bonawitz import _SHARE_VALUE_BYTES
from repro.secagg.field import DEFAULT_FIELD, PrimeField
from repro.secagg.kernels import keystream_batch
from repro.secagg.shamir import LimbShares, Share, _check_shares, _check_split


def split_secret_scalar(
    secret: int,
    threshold: int,
    num_shares: int,
    rng: np.random.Generator,
    field: PrimeField = DEFAULT_FIELD,
) -> list[Share]:
    """Per-coefficient draws, per-share Horner.

    Produces shares with the same distribution as
    :func:`repro.secagg.shamir.split_secret` (both sample uniform
    polynomials) and identical reconstructions.
    """
    _check_split([secret], threshold, num_shares, field.prime)
    # Coefficients a_0 = secret, a_1..a_{t-1} uniform: f of degree t-1.
    coefficients = [secret] + [
        int(rng.integers(0, field.prime)) for _ in range(threshold - 1)
    ]
    return [
        Share(x=x, y=field.evaluate_polynomial(coefficients, x))
        for x in range(1, num_shares + 1)
    ]


def reconstruct_secret_scalar(
    shares: Iterable[Share], field: PrimeField = DEFAULT_FIELD
) -> int:
    """Per-pair Lagrange loops at ``x = 0``."""
    shares = list(shares)
    _check_shares(
        [share.x for share in shares],
        [[share.y for share in shares]],
        field.prime,
    )
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


def keystream(key: bytes, length: int) -> np.ndarray:
    """One key's stream: row 0 of :func:`keystream_batch`."""
    return keystream_batch([key], length)[0]


def encode_payload(seed_share: Share, key_share: LimbShares) -> bytes:
    """One recipient's envelope plaintext: seed value, then each limb."""
    return b"".join(
        y.to_bytes(_SHARE_VALUE_BYTES, "little")
        for y in (seed_share.y, *key_share.ys)
    )


def decode_payload(payload: bytes, point: int) -> tuple[Share, LimbShares]:
    """Inverse of :func:`encode_payload` for the recipient at ``point``."""
    width = _SHARE_VALUE_BYTES
    if len(payload) < width or len(payload) % width:
        raise AggregationError(
            f"malformed share payload: {len(payload)} bytes is not a seed "
            f"share and whole {width}-byte limbs"
        )
    seed_y, *ys = (
        int.from_bytes(payload[at : at + width], "little")
        for at in range(0, len(payload), width)
    )
    return Share(x=point, y=seed_y), LimbShares(x=point, ys=tuple(ys))


def seal(channel_key: bytes, payload: bytes) -> bytes:
    """XOR-encrypt ``payload`` under the channel key's keystream."""
    stream = keystream(channel_key, len(payload))
    return bytes(np.bitwise_xor(np.frombuffer(payload, dtype=np.uint8), stream))


def open_sealed(channel_key: bytes, ciphertext: bytes) -> bytes:
    """Decrypt a :func:`seal` envelope (XOR streams are involutions)."""
    return seal(channel_key, ciphertext)
