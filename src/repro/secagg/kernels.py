"""Vectorised SecAgg kernels: mask PRG backends and batched Shamir.

The Bonawitz protocol's two hot paths are embarrassingly batchable:

* **Mask expansion.**  Every client expands one pairwise seed per peer
  plus its self-mask seed; the server re-expands the same seeds during
  dropout recovery.  A full cohort of ``n`` clients expands ``Θ(n²)``
  masks per round, so a mask should cost about what streaming
  ``d·log2(m)`` pseudorandom bits costs: :class:`Shake256Prg`, the
  default suite, makes one native XOF call per mask and reads the stream
  at the modulus' own word width, and :func:`sum_signed_masks` adds the
  raw words in wrapping arithmetic.  :class:`Sha256CounterPrg` (one
  Python-level hash call per four coordinates, *bit-identical* to the
  seed implementation) stays negotiable by name as the compatibility
  suite; both sit behind the small :class:`MaskPrg` interface, which
  derives everything from one primitive.

* **Shamir sharing.**  Each client splits its self-mask seed and every
  limb of its mask private key over the same ``n`` evaluation points,
  and the server reconstructs one secret per survivor from shares at the
  same ``t`` points.  Both are one exact modular matrix product
  (:func:`repro.linalg.modular.matmul_mod`): :func:`batched_split`
  multiplies the coefficient matrix by the memoised powers of the
  round's public points (:func:`repro.linalg.modular.horner_mod`), and
  :func:`batched_reconstruct` multiplies every share row it is handed
  by one Lagrange weight vector.  It computes
  the weights once per *call*; "once per unmask phase" is enforced one
  layer up, where :meth:`BonawitzServer.recover_sum
  <repro.secagg.bonawitz.BonawitzServer.recover_sum>` stacks every
  survivor seed and every dropout key limb into a single
  :func:`repro.secagg.shamir.reconstruct_quorum` call.

Both layers are exact — the only floats are 21-bit limbs whose products
BLAS sums below ``2^53``, and the only wraparound is the one that is
itself a reduction mod ``2^k`` — and the golden-vector and
property-test suites (``tests/test_keys_prg.py``,
``tests/test_mask_prg_suites.py``, ``tests/test_shamir.py``) pin them
against hashlib and the retained scalar reference paths.
"""

from __future__ import annotations

import abc
import hashlib
import math
from collections.abc import Sequence

import numpy as np

from repro.errors import AggregationError, ConfigurationError
from repro.linalg.modular import (
    horner_mod,
    matmul_mod,
    sum_mod,
)

_BLOCK_WORDS = 4  # SHA-256 digest = 32 bytes = 4 uint64 words.
_DIGEST_BYTES = 32

#: Pre-cut 8-byte little-endian counters (lazily extended), so the hash
#: loops reuse one bytes object per counter instead of building one per
#: (seed, block).
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


class MaskPrg(abc.ABC):
    """Strategy interface: expand a short seed to a vector over ``Z_m``.

    A backend supplies one primitive, :meth:`_squeeze` — raw unsigned
    words off its keyed stream — and everything else derives from it.
    For ``m = 2^k`` the residue is the low ``k`` bits of a word (exactly
    uniform); for general ``m`` 64-bit words at or above the largest
    multiple of ``m`` are rejected and a mask is the first ``d`` accepted
    words of the stream, reduced mod ``m``.  Both rules are *pure* in
    ``(seed, dimension, modulus)`` — dropout recovery depends on the
    server regenerating bit-identical masks from reconstructed seeds —
    and prefix stable: a longer expansion extends the shorter one.
    """

    #: Registry / wire-format identifier for backend negotiation.
    name: str

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

    @abc.abstractmethod
    def _squeeze(
        self, seeds: list[bytes], count: int, bits: int
    ) -> np.ndarray:
        """``(len(seeds), count)`` read-only little-endian unsigned words.

        Row ``i`` is the first ``count`` words of ``seeds[i]``'s stream,
        each carrying at least ``bits`` uniform low bits; the word width
        is the backend's choice per ``bits`` and 64 for ``bits == 64``.
        """

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
            count = 2 * dimension + _BLOCK_WORDS
            while True:
                words = self._squeeze([bytes(seed)], count, 64)[0]
                accepted = words[words < limit]
                if len(accepted) >= dimension:
                    break
                count *= 2
            out[row] = accepted[:dimension] % np.uint64(modulus)
        return out


class Shake256Prg(MaskPrg):
    """SHAKE-256 as an XOF — the default suite: one hash call per mask.

    The stream is ``SHAKE256(seed)`` read as little-endian unsigned
    words of the narrowest width in {8, 16, 32, 64} bits that holds
    ``log2(m)`` bits (2 B instead of 8 B of stream per coordinate at
    ``m = 2^16``); general moduli read 64-bit words.
    """

    name = "shake256"

    def _squeeze(
        self, seeds: list[bytes], count: int, bits: int
    ) -> np.ndarray:
        width = next(w for w in (1, 2, 4, 8) if 8 * w >= bits)
        shake = hashlib.shake_256
        nbytes = count * width
        digest = b"".join([shake(seed).digest(nbytes) for seed in seeds])
        return np.frombuffer(digest, dtype=f"<u{width}").reshape(
            len(seeds), count
        )


class Sha256CounterPrg(MaskPrg):
    """SHA-256 counter mode — the compatibility suite.

    ``block_i = SHA256(seed || i)`` with a little-endian 64-bit counter,
    blocks concatenated and always read as little-endian uint64 words:
    one Python-level hash call per four coordinates.  Bit-identical to
    the seed implementation (see the golden vectors in
    ``tests/test_keys_prg.py``), negotiable by name for rounds that must
    interoperate with it.
    """

    name = "sha256-ctr"

    def _squeeze(
        self, seeds: list[bytes], count: int, bits: int
    ) -> np.ndarray:
        blocks = (count + _BLOCK_WORDS - 1) // _BLOCK_WORDS
        counters = _counter_slices(blocks)
        sha256 = hashlib.sha256
        digest = b"".join(
            [
                sha256(seed + counter).digest()
                for seed in seeds
                for counter in counters
            ]
        )
        return np.frombuffer(digest, dtype="<u8").reshape(
            len(seeds), blocks * _BLOCK_WORDS
        )[:, :count]


#: Registered suites, keyed by wire name.
MASK_PRGS: dict[str, MaskPrg] = {
    prg.name: prg for prg in (Shake256Prg(), Sha256CounterPrg())
}

#: What a round speaks unless told otherwise.
DEFAULT_MASK_PRG = MASK_PRGS["shake256"]


def get_mask_prg(spec: str | MaskPrg | None) -> MaskPrg:
    """Resolve a backend name (or pass an instance through).

    Args:
        spec: A registered name (``"shake256"``, ``"sha256-ctr"``), a
            :class:`MaskPrg` instance, or None for the default.

    Raises:
        ConfigurationError: On an unknown backend name.
    """
    if spec is None:
        return DEFAULT_MASK_PRG
    if isinstance(spec, MaskPrg):
        return spec
    try:
        return MASK_PRGS[spec]
    except KeyError:
        raise ConfigurationError(
            f"unknown mask PRG {spec!r}; known: {sorted(MASK_PRGS)}"
        ) from None


def sum_signed_masks(
    seeds: Sequence[bytes],
    signs: Sequence[int],
    dimension: int,
    modulus: int,
    prg: MaskPrg | str | None = None,
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
        prg: Mask PRG backend (default: :data:`DEFAULT_MASK_PRG`).

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

    Unlike mask expansion over ``Z_256`` — which reads one *byte* out of
    each 64-bit word and therefore burns a whole SHA-256 block per four
    output bytes — the envelope keystream consumes all 32 digest bytes,
    an 8× reduction in hash invocations for the same stream length.

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


def keystream(key: bytes, length: int) -> np.ndarray:
    """Single-key convenience wrapper around :func:`keystream_batch`."""
    return keystream_batch([key], length)[0]


# ---------------------------------------------------------------------------
# Batched Shamir over GF(p), p <= 2^61.
# ---------------------------------------------------------------------------


def _validate_split(
    secrets: np.ndarray, threshold: int, num_shares: int, prime: int
) -> None:
    if secrets.size and (
        int(secrets.min()) < 0 or int(secrets.max()) >= prime
    ):
        raise ConfigurationError(
            f"secrets must lie in [0, {prime}), got range "
            f"[{secrets.min()}, {secrets.max()}]"
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


def batched_split(
    secrets: Sequence[int] | np.ndarray,
    threshold: int,
    num_shares: int,
    rng: np.random.Generator,
    prime: int,
) -> np.ndarray:
    """Shamir-share many secrets over the same evaluation points at once.

    One independent uniform degree-``threshold - 1`` polynomial per
    secret, all evaluated at ``x = 1..num_shares`` as one matrix
    product: the ``(k, t)`` coefficients times the ``(t, n)`` powers of
    the points, which every split over the same ``(t, n)`` shares.  The
    coefficients are one ``rng.integers`` draw of shape ``(k, t - 1)``,
    so the shares are a function of the generator's state alone.

    Args:
        secrets: ``(k,)`` secrets, each in ``[0, prime)``.
        threshold: Reconstruction threshold ``t``.
        num_shares: Number of evaluation points ``n``.
        rng: Source of the polynomial coefficients.
        prime: Field modulus, at most ``2^61``.

    Returns:
        ``(k, num_shares)`` uint64 matrix; row ``i``, column ``j`` is
        secret ``i``'s share value at ``x = j + 1``.

    Raises:
        ConfigurationError: On inconsistent parameters (mirrors the
            scalar :func:`repro.secagg.shamir.split_secret_scalar`).
    """
    secrets = np.asarray(secrets, dtype=np.uint64)
    if secrets.ndim != 1:
        raise ConfigurationError(
            f"secrets must be a 1-d sequence, got shape {secrets.shape}"
        )
    _validate_split(secrets, threshold, num_shares, prime)
    coefficients = np.empty((secrets.shape[0], threshold), dtype=np.uint64)
    coefficients[:, 0] = secrets
    if threshold > 1:
        coefficients[:, 1:] = rng.integers(
            0, prime, size=(secrets.shape[0], threshold - 1), dtype=np.uint64
        )
    xs = np.arange(1, num_shares + 1, dtype=np.uint64)
    return horner_mod(coefficients, xs, prime)


def lagrange_weights_at_zero(
    xs: Sequence[int] | np.ndarray, prime: int
) -> np.ndarray:
    """Lagrange weights ``l_i(0)`` for distinct points ``xs``.

    ``l_i(0) = Π_{j≠i} x_j / (x_j - x_i) = (Π_j x_j) / (x_i Π_{j≠i}
    (x_j - x_i)) mod p``.  Plain Python integers: each denominator is
    one unreduced product and one ``pow(·, -1, p)``, which for a quorum
    of tens of points beats the ``2t`` uint64 array passes and two
    61-step Fermat ladders it replaces several times over.  This
    function computes what it is asked every time; sharing one weight
    vector across every secret a quorum reveals is the callers' job —
    :func:`batched_reconstruct` per call, and
    :func:`repro.secagg.shamir.reconstruct_quorum` once per unmask
    phase.

    Args:
        xs: ``(t,)`` distinct nonzero points in ``(0, prime)``.
        prime: Field modulus, at most ``2^61``.

    Returns:
        ``(t,)`` uint64 weights such that ``f(0) = Σ_i w_i f(x_i)``.

    Raises:
        AggregationError: On duplicate, zero, or out-of-field points.
    """
    xs = np.asarray(xs, dtype=np.uint64)
    if xs.size == 0:
        raise AggregationError("cannot reconstruct from zero shares")
    if len(np.unique(xs)) != len(xs):
        raise AggregationError(
            f"duplicate share points: {sorted(int(x) for x in xs)}"
        )
    if int(xs.min()) <= 0 or int(xs.max()) >= prime:
        raise AggregationError(
            f"share points must lie in (0, {prime}), got range "
            f"[{xs.min()}, {xs.max()}]"
        )
    points = xs.tolist()
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


def batched_reconstruct(
    xs: Sequence[int] | np.ndarray,
    ys: Sequence[Sequence[int]] | np.ndarray,
    prime: int,
) -> np.ndarray:
    """Reconstruct many secrets whose shares sit at the same points.

    One matrix product: the ``(k, t)`` share rows times the ``(t, 1)``
    Lagrange weights of the points.

    Args:
        xs: ``(t,)`` distinct share points, shared by all secrets.
        ys: ``(k, t)`` share values; row ``i`` holds secret ``i``'s
            values at ``xs``.
        prime: Field modulus, at most ``2^61``.

    Returns:
        ``(k,)`` uint64 secrets ``f_i(0)``.

    Raises:
        AggregationError: On malformed points or out-of-field values.
    """
    ys = np.atleast_2d(np.asarray(ys, dtype=np.uint64))
    xs = np.asarray(xs, dtype=np.uint64)
    if ys.shape[1] != xs.shape[0]:
        raise AggregationError(
            f"{ys.shape[1]} share values per secret but {xs.shape[0]} points"
        )
    if ys.size and int(ys.max()) >= prime:
        raise AggregationError(
            f"share value {int(ys.max())} outside [0, {prime})"
        )
    weights = lagrange_weights_at_zero(xs, prime)
    return matmul_mod(ys, weights[:, np.newaxis], prime)[:, 0]
