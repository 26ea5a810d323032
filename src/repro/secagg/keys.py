"""Simulated Diffie-Hellman key agreement for pairwise mask seeds.

In the Bonawitz et al. protocol every ordered participant pair ``(u, v)``
derives a shared mask seed ``s_uv`` from a Diffie-Hellman exchange:
``s_uv = KDF(g^{a_u a_v} mod p)``, where ``a_u`` is participant ``u``'s
private key and ``g^{a_u}`` the advertised public key.  Agreement is
symmetric — ``agree(sk_u, pk_v) == agree(sk_v, pk_u)`` — which is exactly
the property that makes the pairwise masks cancel.

Real deployments use elliptic-curve groups; this simulation uses classic
modular-exponentiation DH over a published safe-prime group (RFC 2409
Oakley Group 2) by default, and accepts a small toy group for fast tests.
The derived key is the SHA-256 hash of the shared group element, giving a
32-byte seed for the mask PRG.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib

import numpy as np

from repro.errors import ConfigurationError
from repro.linalg.modular import (
    LIMB_SPLIT_MAX_MODULUS,
    fixed_base_pow,
    fixed_base_table,
    mul_wide,
    pow_mod,
)
from repro.secagg.field import _is_probable_prime

#: RFC 2409 (Oakley) Group 2: a 1024-bit safe prime with generator 2.
OAKLEY_GROUP_2_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE65381FFFFFFFFFFFFFFFF",
    16,
)


@dataclasses.dataclass(frozen=True)
class DhGroup:
    """A cyclic group for Diffie-Hellman: prime modulus and generator.

    Attributes:
        prime: The group modulus ``p`` (validated prime).
        generator: The public generator ``g``.
    """

    prime: int = OAKLEY_GROUP_2_PRIME
    generator: int = 2

    def __post_init__(self) -> None:
        if self.prime < 5 or not _is_probable_prime(self.prime):
            raise ConfigurationError(
                f"DH modulus must be a prime >= 5, got bit-length "
                f"{self.prime.bit_length()}"
            )
        if not 1 < self.generator < self.prime:
            raise ConfigurationError(
                f"generator must lie in (1, p), got {self.generator}"
            )


#: A 61-bit toy group for unit tests (fast exponentiation, same API).
TOY_GROUP = DhGroup(prime=(1 << 61) - 1, generator=3)


#: Lazily imported ``cryptography`` x25519 module; ``False`` once the
#: import has failed (tests monkeypatch this to force the fallback path).
_x25519_module: object = None


def _x25519():
    global _x25519_module
    if _x25519_module is None:
        try:
            from cryptography.hazmat.primitives.asymmetric import x25519

            _x25519_module = x25519
        except ImportError:
            _x25519_module = False
    return _x25519_module or None


def x25519_available() -> bool:
    """Whether the optional ``cryptography`` X25519 backend can be used."""
    return _x25519() is not None


def _require_x25519():
    module = _x25519()
    if module is None:
        raise ConfigurationError(
            "x25519 key agreement requires the optional 'cryptography' "
            "package; install it or use a DhGroup"
        )
    return module


@dataclasses.dataclass(frozen=True)
class X25519Group:
    """Curve25519 key agreement via the optional ``cryptography`` package.

    Drop-in second key-agreement backend beside :class:`DhGroup`: key
    material still travels as Python ints on the existing wire format
    (32 raw curve bytes, little-endian), and :func:`agree` still derives
    ``SHA-256(shared)``.  Constructing the group never imports
    ``cryptography`` — availability is checked at use time, so callers
    can fall back gracefully via :func:`resolve_group`.

    Attributes:
        name: The negotiated backend token (always ``"x25519"``).
    """

    name: str = "x25519"

    def __post_init__(self) -> None:
        if self.name != "x25519":
            raise ConfigurationError(
                f"unknown key-agreement backend {self.name!r}"
            )


#: The singleton X25519 backend instance.
X25519_GROUP = X25519Group()

#: Either key-agreement backend, where both are accepted.
KeyAgreementGroup = DhGroup | X25519Group


def key_bits(group: KeyAgreementGroup) -> int:
    """Bit width of the secret scalar for Shamir limb padding."""
    if isinstance(group, X25519Group):
        return 256
    return group.prime.bit_length()


def kex_name(group: KeyAgreementGroup) -> str:
    """The negotiated key-agreement token for a group."""
    if isinstance(group, X25519Group):
        return "x25519"
    return "mod-dh"


def suite_name(mask_prg: str, group: KeyAgreementGroup) -> str:
    """The negotiated backend string for a (PRG, key agreement) pair.

    Classic modular DH keeps the bare PRG name — byte-for-byte what
    every pre-x25519 round negotiated — so old transcripts and golden
    vectors stay valid; other key agreements append ``+<kex>``.
    """
    kex = kex_name(group)
    return mask_prg if kex == "mod-dh" else f"{mask_prg}+{kex}"


def resolve_group(
    group: KeyAgreementGroup, fallback: DhGroup = TOY_GROUP
) -> KeyAgreementGroup:
    """Degrade an X25519 request to ``fallback`` when the lib is absent.

    The graceful-fallback seam: sessions resolve their configured group
    through this before advertising a suite at Hello, so a participant
    without ``cryptography`` cleanly negotiates modular DH instead of
    crashing mid-round.
    """
    if isinstance(group, X25519Group) and not x25519_available():
        return fallback
    return group


def _check_public(peer_public: int, group: KeyAgreementGroup) -> None:
    if isinstance(group, X25519Group):
        if not 0 < peer_public < (1 << 256):
            raise ConfigurationError(
                "peer public key must be a nonzero 32-byte x25519 point, "
                f"got {peer_public}"
            )
    elif not 1 < peer_public < group.prime:
        raise ConfigurationError(
            f"peer public key must lie in (1, p), got {peer_public}"
        )


def _x25519_private(private: int):
    module = _require_x25519()
    return module.X25519PrivateKey.from_private_bytes(
        private.to_bytes(32, "little")
    )


def _x25519_derive(private_key, peer_public: int) -> bytes:
    module = _require_x25519()
    try:
        shared = private_key.exchange(
            module.X25519PublicKey.from_public_bytes(
                peer_public.to_bytes(32, "little")
            )
        )
    except ValueError as exc:
        raise ConfigurationError(
            f"x25519 exchange with {peer_public} is degenerate: {exc}"
        ) from exc
    return hashlib.sha256(shared).digest()


@dataclasses.dataclass(frozen=True)
class KeyPair:
    """A DH key pair.

    Attributes:
        private: The secret exponent ``a``.
        public: The advertised group element ``g^a mod p``.
        group: The group both live in.
    """

    private: int
    public: int
    group: KeyAgreementGroup

    def __post_init__(self) -> None:
        if isinstance(self.group, X25519Group):
            derived = _x25519_private(self.private)
            public = int.from_bytes(
                derived.public_key().public_bytes_raw(), "little"
            )
            if public != self.public:
                raise ConfigurationError(
                    "public key does not match private key"
                )
            return
        if _generator_pow(self.group, self.private) != self.public:
            raise ConfigurationError("public key does not match private key")


@functools.lru_cache(maxsize=4)
def _generator_table(group: DhGroup) -> list[list[int]]:
    """Fixed-base table of ``g``: row ``k``, column ``w`` is
    ``g^(w·2^(8k)) mod p``, one row per byte of ``p`` (2 048 entries on
    ``TOY_GROUP``, ~5 MiB on Oakley-2, built on first use)."""
    prime, rows, step = group.prime, [], group.generator
    for _ in range((prime.bit_length() + 7) // 8):
        rows.append([1])
        for _ in range(255):
            rows[-1].append(rows[-1][-1] * step % prime)
        step = rows[-1][-1] * step % prime
    return rows


def _generator_pow(group: DhGroup, exponent: int) -> int:
    """``g^exponent mod p``, one table entry a byte of ``exponent mod
    (p - 1)`` (``g^(p-1) = 1``, so any integer works as with ``pow``):
    3.1 against ``pow``'s 11.7 us on ``TOY_GROUP``, 0.61 against 3.8 ms
    on Oakley-2 (2 vCPUs; the tables build in 0.9 and 190 ms)."""
    table, prime, result = _generator_table(group), group.prime, 1
    digits = (exponent % (prime - 1)).to_bytes(len(table), "little")
    for row, byte in zip(table, digits):
        result = result * row[byte] % prime
    return result


def generate_keypair(
    rng: np.random.Generator, group: KeyAgreementGroup = DhGroup()
) -> KeyPair:
    """Sample a fresh DH key pair.

    Args:
        rng: Randomness source for the private exponent.
        group: The DH group to draw from.

    Returns:
        A consistent (private, public) pair.
    """
    if isinstance(group, X25519Group):
        # Both ints are the little-endian view of the 32 raw curve
        # bytes; from_private_bytes round-trips them unchanged (clamping
        # happens inside the exchange), so the int form is stable.
        raw = rng.integers(0, 256, size=32, dtype=np.uint8).tobytes()
        private_key = _require_x25519().X25519PrivateKey.from_private_bytes(
            raw
        )
        private = int.from_bytes(private_key.private_bytes_raw(), "little")
        public = int.from_bytes(
            private_key.public_key().public_bytes_raw(), "little"
        )
        return KeyPair(private=private, public=public, group=group)
    # Private exponents in [2, p - 2]; sampled in 63-bit limbs so the
    # range covers the full group even for 1024-bit primes.
    limbs = (group.prime.bit_length() + 62) // 63
    value = 0
    for _ in range(limbs):
        value = (value << 63) | int(rng.integers(0, 1 << 63))
    private = 2 + value % (group.prime - 3)
    return KeyPair(
        private=private, public=_generator_pow(group, private), group=group
    )


#: Bounded memo of agreed keys: per group, one *row* per public key,
#: ``{own_public: {peer_public: key}}``, each pair in both endpoints'
#: rows.  ``agree(sk_u, pk_v) == agree(sk_v, pk_u)`` by DH symmetry, so
#: when a caller supplies its own public element each pairwise
#: exponentiation runs once instead of once per endpoint, the server's
#: dropout-recovery agreements hit the rows the survivors filled, and an
#: all-hits batch is one row lookup plus one ``row.get`` a peer.  Key
#: pairs are fresh every round, so whoever opens a round — the in-memory
#: and simulated drivers, ``run_swarm``, the socket server's
#: ``_run_round`` — drops the last round's rows first
#: (:func:`repro.secagg.bonawitz.forget_round_memos`).  The bound,
#: counted in *pairs* — every pair of one full-cohort 512-client round
#: (two key sets) with headroom — is the backstop for a caller that opens
#: no round; a memo that would pass it is cleared outright, since
#: one-at-a-time eviction on a large dict degrades on tombstones.
_PAIR_CACHE_MAX = 300_000


class _AgreementMemo(dict):
    """One group's rows, and the pairs merged in since the last clear."""

    pairs = 0

    def clear(self) -> None:
        super().clear()
        self.pairs = 0

    def merge(self, rows: dict[int, dict[int, bytes]], pairs: int) -> None:
        """Merge rows holding ``pairs`` pairs (see :data:`_PAIR_CACHE_MAX`)."""
        if self.pairs + pairs > _PAIR_CACHE_MAX:
            self.clear()
        self.pairs += pairs
        for own, row in rows.items():
            held = self.setdefault(own, row)
            if held is not row:
                held.update(row)


_pair_caches: dict[tuple[object, object], _AgreementMemo] = {}

#: Largest batch of exponentiations still done with scalar ``pow``.
#: Measured on the Mersenne-fold kernels over ``TOY_GROUP`` (``python -m
#: pytest benchmarks/test_kernel_throughput.py -k crossover -s``: best
#: of 9 of ``[pow(peer, private, p) for peer in peers]`` against
#: ``pow_mod(np.asarray(peers, uint64), private, p).tolist()`` with a
#: 61-bit exponent, 2 vCPUs, numpy 2.4): a scalar ``pow`` costs
#: 12.9-13.1 us (11 lanes 143 us, 45 lanes 589 us), the vectorised
#: square-and-multiply a near-fixed 0.57-0.64 ms (11 lanes 617 us, 45
#: lanes 638 us, 180 lanes 751 us), so they cross at 46-49 lanes.
#: (Before the fold the sweep cost 1.5 ms and crossed at ~120, not at
#: the 8 this constant then said.)  :func:`agree_batch` compares its
#: cache-missing peers with it.
SCALAR_BATCH_MAX = 45


def _group_cache(group: KeyAgreementGroup) -> _AgreementMemo:
    if isinstance(group, X25519Group):
        return _pair_caches.setdefault(("x25519", 0), _AgreementMemo())
    return _pair_caches.setdefault(
        (group.prime, group.generator), _AgreementMemo()
    )


def _dh_keys(shared: np.ndarray | list[int], prime: int) -> list[bytes]:
    """SHA-256 of each shared element, big-endian at the prime's width
    (a uint64 array is hashed in slices of one big-endian buffer)."""
    width = (prime.bit_length() + 7) // 8
    if isinstance(shared, np.ndarray):
        buffer = memoryview(shared.astype(">u8").tobytes())
        ends = range(8, len(buffer) + 1, 8)
        chunks = [buffer[end - width : end] for end in ends]
    else:
        chunks = [value.to_bytes(width, "big") for value in shared]
    sha256 = hashlib.sha256
    return [sha256(chunk).digest() for chunk in chunks]


def forget_agreements(group: KeyAgreementGroup) -> None:
    """Drop every memoised agreement of ``group``.

    Memo only: a later :func:`agree` re-derives byte-identical keys.
    """
    _group_cache(group).clear()


def agree(
    private: int,
    peer_public: int,
    group: KeyAgreementGroup,
    own_public: int | None = None,
) -> bytes:
    """Derive the shared 32-byte seed from one side of a DH exchange.

    Args:
        private: This party's secret exponent.
        peer_public: The other party's advertised public element.
        group: The common group.
        own_public: This party's advertised public element
            (``g^private``).  Optional pure optimisation: when given,
            the derived key is memoised in both parties' rows so the
            peer's (and the recovery server's) mirror-image call skips
            the modular exponentiation.  The returned bytes are
            identical either way.

    Returns:
        ``SHA-256(big-endian(peer_public ** private mod p))`` — identical
        for both parties of the exchange.

    Raises:
        ConfigurationError: If ``peer_public`` is outside ``(1, p)``
            (small-subgroup/identity elements are rejected).
    """
    _check_public(peer_public, group)
    return agree_batch(private, [peer_public], group, own_public)[0]


def warm_agreement_cache(
    privates: dict[int, int],
    publics: dict[int, int],
    group: KeyAgreementGroup,
) -> int:
    """Batch-derive every unordered pairwise key into the agree cache.

    A simulation-side accelerator: a real deployment computes the
    ``n(n-1)/2`` pairwise agreements on ``n`` machines in parallel, but
    the single-process simulation pays for all of them serially.  The
    sweep holds every private key, so a pair's ``pk_v^(a_u)`` is
    ``g^(a_u·a_v)``: the exact 122-bit exponent product raised from the
    generator's window table (:func:`repro.linalg.modular.fixed_base_pow`,
    12 gathers and 11 multiplies a lane where square-and-multiply took
    ~122).  Keys fill whole memo rows, so every later :func:`agree` /
    :func:`agree_batch` call — client *or* server — is a dictionary hit.
    Derived bytes are identical to the scalar path; groups beyond the
    limb-split kernels are skipped (on-demand agreement still works).

    Args:
        privates: Private exponent per participant index.
        publics: Matching public element (``g^private``) per index.
        group: The common group.

    Returns:
        Number of pairwise keys derived (0 if skipped or trivial).

    Raises:
        ConfigurationError: If a public element is not ``g^private``
            (checked on every lane before the product is trusted).
    """
    indices = sorted(privates)
    if len(indices) < 2:
        return 0
    own = [publics[i] for i in indices]
    lo, hi = np.triu_indices(len(indices), k=1)
    if isinstance(group, X25519Group):
        # No batched kernel for the curve — but each unordered pair is
        # still derived once (native scalar mults) instead of once per
        # endpoint, and recovery agreements become dictionary hits.
        private_keys = [_x25519_private(privates[i]) for i in indices]
        derived = [
            _x25519_derive(private_keys[u], own[v])
            for u, v in zip(lo.tolist(), hi.tolist())
        ]
    elif group.prime > LIMB_SPLIT_MAX_MODULUS:
        return 0
    else:
        prime = group.prime
        table = fixed_base_table(group.generator, prime)
        exponents = np.asarray(
            [privates[i] % (prime - 1) for i in indices], dtype=np.uint64
        )
        checked = fixed_base_pow(table, (exponents,), prime).tolist()
        wrong = [i for i, a, b in zip(indices, checked, own) if a != b]
        if wrong:
            raise ConfigurationError(
                f"public keys of participants {wrong} are not g^private"
            )
        shared = fixed_base_pow(
            table, mul_wide(exponents[lo], exponents[hi]), prime
        )
        derived = _dh_keys(shared, prime)
    # Pair k is (lo[k], hi[k]); row u reads its keys through row u of
    # the symmetric pair-index matrix.
    pair = np.zeros((len(indices), len(indices)), dtype=np.intp)
    pair[lo, hi] = pair[hi, lo] = np.arange(len(derived))
    rows = {}
    for u, public in enumerate(own):
        row = dict(zip(own, map(derived.__getitem__, pair[u].tolist())))
        del row[public]
        rows[public] = row
    _group_cache(group).merge(rows, len(derived))
    return len(derived)


def agree_batch(
    private: int,
    peer_publics: list[int],
    group: KeyAgreementGroup,
    own_public: int | None = None,
) -> list[bytes]:
    """Derive shared seeds with many peers in one vectorised sweep.

    Byte-identical to calling :func:`agree` per peer, but the modular
    exponentiations for cache-missing peers run as one batched
    square-and-multiply over uint64 arrays
    (:func:`repro.linalg.modular.pow_mod`) when the group fits the
    limb-split kernels and more than :data:`SCALAR_BATCH_MAX` peers are
    missing — a near-fixed cost whatever the lane count — and as scalar
    ``pow`` for fewer peers or a big group.

    Args:
        private: This party's secret exponent.
        peer_publics: The peers' advertised public elements.
        group: The common group.
        own_public: This party's public element, enabling the symmetric
            pair cache (see :func:`agree`).

    Returns:
        One 32-byte derived key per peer, in input order.

    Raises:
        ConfigurationError: If any peer public key is out of range.
    """
    # Memoised pairs were range-checked when first derived, so the hot
    # (all-hits) path is one row lookup and one probe per peer;
    # validation runs only for misses, before any exponentiation.
    memo = {} if own_public is None else _group_cache(group)
    row = memo.get(own_public, {})
    results = list(map(row.get, peer_publics))
    if None not in results:
        return results
    missing = [at for at, key in enumerate(results) if key is None]
    peers = [peer_publics[at] for at in missing]
    for peer in peers:
        _check_public(peer, group)
    if isinstance(group, X25519Group):
        private_key = _x25519_private(private)
        derived = [_x25519_derive(private_key, peer) for peer in peers]
    else:
        prime = group.prime
        if prime <= LIMB_SPLIT_MAX_MODULUS and len(peers) > SCALAR_BATCH_MAX:
            bases = np.asarray(peers, dtype=np.uint64)
            shared = pow_mod(bases, private, prime)
        else:
            shared = [pow(peer, private, prime) for peer in peers]
        derived = _dh_keys(shared, prime)
    for at, key in zip(missing, derived):
        results[at] = key
    if own_public is not None:
        rows = {peer: {own_public: key} for peer, key in zip(peers, derived)}
        rows.setdefault(own_public, {}).update(zip(peers, derived))
        memo.merge(rows, len(derived))
    return results  # type: ignore[return-value]
