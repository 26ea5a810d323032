"""Vectorised SecAgg kernels: the mask PRG and the envelope keystream.

* **Mask expansion.**  Every client expands one pairwise seed per peer
  plus its self-mask seed; the server re-expands the same seeds during
  dropout recovery.  A full cohort of ``n`` clients expands ``Θ(n²)``
  masks per round, so a mask should cost about what streaming
  ``d·log2(m)`` pseudorandom bits costs: :class:`MaskPrg` (SHAKE-256)
  makes one native XOF call per mask and reads the stream at the
  modulus' own word width, and :func:`sum_signed_masks` adds the raw
  words in wrapping arithmetic.

* **Envelope sealing.**  Every client seals one share-keys envelope per
  peer and opens one per peer: :func:`keystream_batch` derives all of a
  client's SHA-256 counter-mode streams in one call.

Shamir sharing, the round's other batched leg, is
:mod:`repro.secagg.shamir`.  Mask arithmetic is exact — the only
wraparound is the one that is itself a reduction mod ``2^k`` — and the
golden-vector suites (``tests/test_keys_prg.py``,
``tests/test_mask_prg_suites.py``) pin the PRG against hashlib;
``tests/test_secagg_kernels.py`` pins the keystream.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.linalg.modular import sum_mod

_DIGEST_BYTES = 32

#: Pre-cut 8-byte little-endian counters (lazily extended), so the
#: keystream loop reuses one bytes object per counter instead of building
#: one per (key, block).
_counter_slice_cache: list[bytes] = []


def _counter_slices(blocks: int) -> list[bytes]:
    """8-byte little-endian counter slices for ``0..blocks-1``."""
    cache = _counter_slice_cache
    if len(cache) < blocks:
        buffer = np.arange(len(cache), blocks, dtype="<u8").tobytes()
        cache.extend(buffer[i : i + 8] for i in range(0, len(buffer), 8))
    return cache[:blocks]


def _validate_mask_request(dimension: int, modulus: int) -> None:
    if dimension < 0:
        raise ConfigurationError(f"dimension must be >= 0, got {dimension}")
    # Above 2**63 residues no longer fit the int64 contract.
    if not 2 <= modulus <= 1 << 63:
        raise ConfigurationError(
            f"modulus must lie in [2, 2**63], got {modulus}"
        )


class MaskPrg:
    """SHAKE-256 as an XOF: expand a short seed to a vector over ``Z_m``.

    One hash call per mask.  The stream is ``SHAKE256(seed)`` read as
    little-endian unsigned words of the narrowest width in {8, 16, 32,
    64} bits that holds ``log2(m)`` bits (2 B of stream per coordinate at
    ``m = 2^16``).  For ``m = 2^k`` the residue is the low ``k`` bits of a
    word (exactly uniform); a general ``m`` reads 64-bit words, rejects
    those at or above the largest multiple of ``m``, and a mask is the
    first ``d`` accepted words reduced mod ``m``.  Both rules are *pure*
    in ``(seed, dimension, modulus)`` — dropout recovery depends on the
    server regenerating bit-identical masks from reconstructed seeds —
    and prefix stable: a longer expansion extends the shorter one.

    Instances differ only in their memo.  Rounds share
    :data:`DEFAULT_MASK_PRG`; the round drivers and sessions still take
    an optional instance because it says which memo a round fills — the
    benchmark hands each simulated round a fresh one, so that it times
    cold expansion rather than rows an earlier round left behind.
    """

    #: The mask-PRG half of the suite string on every frame
    #: (:func:`repro.secagg.keys.suite_name`).
    name = "shake256"

    #: Memo budget in bytes.  Every pairwise mask is expanded once by
    #: *each* endpoint (and again by the server for dropout pairs), so
    #: memoising halves the protocol's hash volume.  Entries are
    #: round-local like the DH pair cache, and like it the memo is
    #: round-scoped on every transport: whoever opens a round calls
    #: :meth:`forget` (through
    #: :func:`repro.secagg.bonawitz.forget_round_memos`), so the budget
    #: is the backstop inside one round — when hit the memo clears
    #: wholesale.  32 MiB of 2-byte words is as many ``m = 2^16`` masks
    #: as the 128 MiB of int64 residues the memo used to hold.
    CACHE_BUDGET_BYTES = 32 * 1024 * 1024

    #: What one memo entry costs beside its words, charged against the
    #: budget: the key tuple, the row's array view and the dict slot
    #: (tracemalloc over 20 000 rows squeezed 64 at a time: 208 B a
    #: row) plus the 65 B of a 32-byte seed only the memo keeps alive.
    #: Counting words only, narrow masks (d = 64, m = 2^16: 128 B of
    #: words a row) held ~3x the budget before it tripped, d = 8 rows
    #: ~18x.
    ENTRY_OVERHEAD_BYTES = 300

    def __init__(self) -> None:
        self._memo: dict[tuple[bytes, int, int], np.ndarray] = {}
        self._memo_bytes = 0

    def forget(self) -> None:
        """Drop every memoised row.

        Memo only: a later expansion re-derives bit-identical words.
        """
        self._memo.clear()
        self._memo_bytes = 0

    def _squeeze(
        self, seeds: list[bytes], count: int, bits: int
    ) -> np.ndarray:
        """``(len(seeds), count)`` read-only little-endian unsigned words.

        Row ``i`` is the first ``count`` words of ``seeds[i]``'s stream,
        each the narrowest width that carries ``bits`` bits.
        """
        width = next(w for w in (1, 2, 4, 8) if 8 * w >= bits)
        shake = hashlib.shake_256
        nbytes = count * width
        digest = b"".join([shake(seed).digest(nbytes) for seed in seeds])
        return np.frombuffer(digest, dtype=f"<u{width}").reshape(
            len(seeds), count
        )

    def word_rows(
        self, seeds: Sequence[bytes], dimension: int, bits: int
    ) -> list[np.ndarray]:
        """One memoised read-only word row per seed, for ``m = 2^bits``.

        Rows are views over the digest bytes — nothing is copied into or
        out of the memo — so callers must reduce them into a new array.
        """
        keys = [(bytes(seed), dimension, bits) for seed in seeds]
        rows = [self._memo.get(key) for key in keys]
        missing = [i for i, row in enumerate(rows) if row is None]
        if missing:
            fresh = self._squeeze(
                [keys[i][0] for i in missing], dimension, bits
            )
            cost = fresh.nbytes + len(missing) * self.ENTRY_OVERHEAD_BYTES
            if self._memo_bytes + cost > self.CACHE_BUDGET_BYTES:
                self.forget()
            self._memo_bytes += cost
            for i, row in zip(missing, fresh):
                rows[i] = self._memo[keys[i]] = row
        return rows

    def expand(self, seed: bytes, dimension: int, modulus: int) -> np.ndarray:
        """Expand ``seed`` into a length-``dimension`` vector over ``Z_m``."""
        return self.expand_batch([seed], dimension, modulus)[0]

    def expand_batch(
        self, seeds: Sequence[bytes], dimension: int, modulus: int
    ) -> np.ndarray:
        """Expand many seeds at once into a ``(len(seeds), d)`` int64 array."""
        _validate_mask_request(dimension, modulus)
        if modulus & (modulus - 1) == 0:
            rows = self.word_rows(seeds, dimension, modulus.bit_length() - 1)
            out = np.empty((len(seeds), dimension), dtype=np.int64)
            if rows:
                low_bits = rows[0].dtype.type(modulus - 1)
                np.bitwise_and(rows, low_bits, out=out, casting="unsafe")
            return out
        # General modulus: the accepted share of the stream is data
        # dependent, so squeeze per seed and re-squeeze longer on the
        # (astronomically rare) shortfall.
        limit = np.uint64((1 << 64) - (1 << 64) % modulus)
        out = np.empty((len(seeds), dimension), dtype=np.int64)
        for row, seed in enumerate(seeds):
            count = 2 * dimension + 4
            while True:
                words = self._squeeze([bytes(seed)], count, 64)[0]
                accepted = words[words < limit]
                if len(accepted) >= dimension:
                    break
                count *= 2
            out[row] = accepted[:dimension] % np.uint64(modulus)
        return out


#: The instance every round fills unless handed its own.
DEFAULT_MASK_PRG = MaskPrg()


def get_mask_prg(spec: MaskPrg | None = None) -> MaskPrg:
    """``spec`` itself, or :data:`DEFAULT_MASK_PRG` when it is None.

    Raises:
        ConfigurationError: When ``spec`` is anything else — a suite
            name included: there is one suite, and no name selects it.
    """
    if spec is None:
        return DEFAULT_MASK_PRG
    if not isinstance(spec, MaskPrg):
        raise ConfigurationError(
            f"unknown mask PRG {spec!r}: pass a MaskPrg instance or None; "
            f"rounds speak only {MaskPrg.name!r}"
        )
    return spec


def sum_signed_masks(
    seeds: Sequence[bytes],
    signs: Sequence[int],
    dimension: int,
    modulus: int,
    prg: MaskPrg | None = None,
) -> np.ndarray:
    """``Σ_k sign_k · PRG(seed_k) mod m`` in one batched pass.

    This is the whole of a client's round-2 masking (self mask plus one
    signed pairwise mask per peer) and of the server's recovery
    subtraction, collapsed into a single kernel call.  For ``m = 2^k``
    the raw word rows are added and subtracted in their own unsigned
    dtype — wraparound is exact mod ``2^k`` because ``2^k`` divides the
    word range — and masked and widened once at the end.

    Args:
        seeds: One PRG seed per mask.
        signs: ``+1`` or ``-1`` per mask (lower/higher-indexed party).
        dimension: Mask vector length.
        modulus: Aggregation modulus ``m``, at most ``2**63``.
        prg: The instance whose memo to use (default:
            :data:`DEFAULT_MASK_PRG`).

    Returns:
        The signed sum reduced into ``[0, m)``, int64.

    Raises:
        ConfigurationError: On mismatched lengths or an invalid sign.
    """
    if len(seeds) != len(signs):
        raise ConfigurationError(
            f"{len(seeds)} seeds but {len(signs)} signs"
        )
    if any(sign not in (1, -1) for sign in signs):
        raise ConfigurationError(f"signs must be +1 or -1, got {signs!r}")
    _validate_mask_request(dimension, modulus)
    if not seeds:
        return np.zeros(dimension, dtype=np.int64)
    prg = get_mask_prg(prg)
    if modulus & (modulus - 1) == 0:
        rows = prg.word_rows(seeds, dimension, modulus.bit_length() - 1)
        total = np.zeros(dimension, dtype=rows[0].dtype)
        for row, sign in zip(rows, signs):
            if sign == 1:
                total += row
            else:
                total -= row
        return (total & total.dtype.type(modulus - 1)).astype(np.int64)
    masks = prg.expand_batch(seeds, dimension, modulus)
    flips = np.asarray(signs, dtype=np.int64) == -1
    masks[flips] = np.mod(-masks[flips], modulus)
    return sum_mod(masks.astype(np.uint64), modulus).astype(np.int64)


def keystream_batch(
    keys: Sequence[bytes], length: int
) -> np.ndarray:
    """SHA-256 counter-mode keystreams, full digest width, many keys.

    Every block contributes all 32 of its digest bytes, so a stream of
    ``length`` bytes costs ``ceil(length / 32)`` hash calls.

    Args:
        keys: One symmetric key per stream.
        length: Stream length in bytes (shared by all streams).

    Returns:
        ``(len(keys), length)`` uint8 array; stream ``k`` is
        ``SHA256(key_k || 0) || SHA256(key_k || 1) || ...`` truncated.
    """
    if length < 0:
        raise ConfigurationError(f"length must be >= 0, got {length}")
    if not keys or length == 0:
        return np.zeros((len(keys), length), dtype=np.uint8)
    blocks = (length + _DIGEST_BYTES - 1) // _DIGEST_BYTES
    counters = _counter_slices(blocks)
    sha256 = hashlib.sha256
    digest = b"".join(
        [
            sha256(key + counter).digest()
            for key in keys
            for counter in counters
        ]
    )
    return np.frombuffer(digest, dtype=np.uint8).reshape(
        len(keys), blocks * _DIGEST_BYTES
    )[:, :length]
