"""Deterministic mask expansion: seed -> uniform vector over ``Z_m``.

Both mask kinds in the Bonawitz protocol — the pairwise masks derived
from DH seeds and the self-masks derived from ``b_u`` — are produced by
expanding a short seed into a length-``d`` vector of integers uniform
over ``Z_m``.  Correct dropout recovery requires that the server, given
a reconstructed seed, regenerates *bit-identical* masks, so the
expansion must be a deterministic function of the seed alone.

Two suites are registered.  The default, ``"shake256"``, reads one
``SHAKE256(seed)`` stream per mask at the modulus' native word width;
``"sha256-ctr"`` is the original expansion — ``block_i = SHA256(seed ||
i)``, concatenated and read as little-endian 64-bit words — kept for
rounds that must interoperate with it.  In both, power-of-two moduli
(every modulus the paper uses) mask words to ``log2(m)`` bits, which is
exactly uniform, and general moduli rejection-sample 64-bit words below
the largest multiple of ``m``, so the output is exactly uniform rather
than modulo-biased.

The actual computation lives in the vectorised kernel layer
(:mod:`repro.secagg.kernels`): this module keeps the stable functional
API, routes it through a selectable :class:`~repro.secagg.kernels.MaskPrg`
suite, and retains the original scalar SHA-256 implementation as
:func:`expand_mask_reference` — the baseline the ``"sha256-ctr"``
golden-vector tests and kernel micro-benchmarks compare against.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import ConfigurationError
from repro.secagg.kernels import MaskPrg, get_mask_prg

_BLOCK_WORDS = 4  # SHA-256 digest = 32 bytes = 4 uint64 words.


def _counter_words_reference(
    seed: bytes, num_words: int, offset: int = 0
) -> np.ndarray:
    """Generate ``num_words`` uint64 words from SHA-256(seed || counter)."""
    blocks = (num_words + _BLOCK_WORDS - 1) // _BLOCK_WORDS
    digest = b"".join(
        hashlib.sha256(seed + (offset + i).to_bytes(8, "little")).digest()
        for i in range(blocks)
    )
    return np.frombuffer(digest, dtype="<u8")[:num_words]


def expand_mask_reference(
    seed: bytes, dimension: int, modulus: int
) -> np.ndarray:
    """The retained scalar reference expansion (pre-kernel seed code).

    Kept verbatim so the ``"sha256-ctr"`` suite can be asserted
    bit-identical forever, and as the scalar baseline for
    ``benchmarks/test_kernel_throughput.py``.  Production callers use
    :func:`expand_mask`.  (The two part ways only where this loop is
    itself not prefix stable: a general modulus, an odd dimension, *and*
    more than half of the first ``2d + 4`` words rejected — it then
    skips the unread words of its last block, the kernel does not.)
    """
    if dimension < 0:
        raise ConfigurationError(f"dimension must be >= 0, got {dimension}")
    if modulus < 2:
        raise ConfigurationError(f"modulus must be >= 2, got {modulus}")
    if modulus & (modulus - 1) == 0:
        # Power of two: masking low bits of a uniform word is uniform.
        words = _counter_words_reference(seed, dimension)
        return (words & np.uint64(modulus - 1)).astype(np.int64)
    # General modulus: rejection-sample below the largest multiple of m
    # representable in 64 bits, so the residue is exactly uniform.
    limit = (1 << 64) - ((1 << 64) % modulus)
    out = np.empty(dimension, dtype=np.int64)
    filled = 0
    offset = 0
    while filled < dimension:
        want = dimension - filled
        words = _counter_words_reference(seed, 2 * want + _BLOCK_WORDS, offset)
        offset += (len(words) + _BLOCK_WORDS - 1) // _BLOCK_WORDS
        accepted = words[words < np.uint64(limit)]
        take = min(want, len(accepted))
        out[filled : filled + take] = (
            accepted[:take] % np.uint64(modulus)
        ).astype(np.int64)
        filled += take
    return out


def expand_mask(
    seed: bytes,
    dimension: int,
    modulus: int,
    prg: MaskPrg | str | None = None,
) -> np.ndarray:
    """Expand ``seed`` into a deterministic uniform vector over ``Z_m``.

    Args:
        seed: Arbitrary-length byte seed (32 bytes in the protocol).
        dimension: Output length ``d``.
        modulus: The group modulus ``m >= 2``.
        prg: Mask PRG suite — a registered name (``"shake256"``,
            ``"sha256-ctr"``), a :class:`~repro.secagg.kernels.MaskPrg`
            instance, or None for the default.

    Returns:
        Length-``d`` int64 array with entries in ``[0, m)``; identical
        for identical ``(seed, dimension, modulus)`` and backend.

    Raises:
        ConfigurationError: On a negative dimension, a modulus outside
            ``[2, 2**63]``, or an unknown suite name.
    """
    return get_mask_prg(prg).expand(seed, dimension, modulus)


def pairwise_delta(
    seed: bytes,
    dimension: int,
    modulus: int,
    sign: int,
    prg: MaskPrg | str | None = None,
) -> np.ndarray:
    """The signed pairwise-mask contribution of one participant.

    Participant ``u`` adds ``+PRG(s_uv)`` for every peer ``v > u`` and
    ``-PRG(s_uv)`` for every peer ``v < u`` (mod ``m``); the two
    contributions cancel in the aggregate.

    Args:
        seed: The shared pairwise seed ``s_uv``.
        dimension: Vector length.
        modulus: Group modulus.
        sign: ``+1`` for the lower-indexed party, ``-1`` for the higher.
        prg: Mask PRG backend (see :func:`expand_mask`).

    Returns:
        The signed mask, reduced into ``[0, m)``.
    """
    if sign not in (1, -1):
        raise ConfigurationError(f"sign must be +1 or -1, got {sign}")
    mask = expand_mask(seed, dimension, modulus, prg)
    return mask if sign == 1 else np.mod(-mask, modulus)
