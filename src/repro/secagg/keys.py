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
import hashlib

import numpy as np

from repro.errors import ConfigurationError
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
        if pow(self.group.generator, self.private, self.group.prime) != (
            self.public
        ):
            raise ConfigurationError("public key does not match private key")


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
    public = pow(group.generator, private, group.prime)
    return KeyPair(private=private, public=public, group=group)


#: Bounded memo of agreed keys: one inner dict per group, keyed by the
#: *unordered* public pair.  ``agree(sk_u, pk_v) == agree(sk_v, pk_u)``
#: by DH symmetry, so when a caller supplies its own public element the
#: simulation computes each pairwise exponentiation once instead of once
#: per endpoint — and the server's dropout-recovery agreements hit the
#: entries the surviving clients already produced.  Key pairs are fresh
#: every round, so old entries are dead weight, and the memo is
#: round-scoped on every transport: whoever opens a round — the
#: in-memory and simulated drivers, ``run_swarm`` and the socket
#: server's ``_run_round`` — drops the previous round's entries first
#: (:func:`forget_agreements`, through
#: :func:`repro.secagg.bonawitz.forget_round_memos`).  Left alone, a
#: 64-client swarm process gains 64·63 = 4 032 entries a round for as
#: long as it lives.  The per-group bound — sized to hold
#: every pair of one full-cohort 512-client round (two key sets per
#: pair) with headroom — is the backstop for a caller that opens no
#: round at all; when full the cache is cleared outright rather than
#: evicted entry-by-entry, since one-at-a-time FIFO eviction on a large
#: dict degrades quadratically on tombstones.
_PAIR_CACHE_MAX = 300_000
_pair_caches: dict[tuple[object, object], dict[tuple[int, int], bytes]] = {}

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
#: the 8 this constant then said.)  Both users compare the lanes their
#: sweep would carry: :func:`agree_batch` its cache-missing peers,
#: :func:`repro.secagg.bonawitz.warm_pairwise_agreements` its
#: ``n(n-1)/2`` pairs.
SCALAR_BATCH_MAX = 45


def _group_cache(group: KeyAgreementGroup) -> dict[tuple[int, int], bytes]:
    if isinstance(group, X25519Group):
        return _pair_caches.setdefault(("x25519", 0), {})
    return _pair_caches.setdefault((group.prime, group.generator), {})


def _pair_key(a: int, b: int) -> tuple[int, int]:
    """The memo key of an unordered pair of public keys."""
    return (a, b) if a <= b else (b, a)


def _remember(
    cache: dict[tuple[int, int], bytes], a: int, b: int, derived: bytes
) -> None:
    """Memoise ``derived`` under the pair ``{a, b}``; a full cache is
    cleared outright first (see :data:`_PAIR_CACHE_MAX`)."""
    if len(cache) >= _PAIR_CACHE_MAX:
        cache.clear()
    cache[_pair_key(a, b)] = derived


def _dh_digest(shared: int, prime: int) -> bytes:
    """SHA-256 of the shared element, big-endian at the prime's width."""
    width = (prime.bit_length() + 7) // 8
    return hashlib.sha256(shared.to_bytes(width, "big")).digest()


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
            the derived key is memoised under the unordered public pair
            so the peer's (and the recovery server's) mirror-image call
            skips the modular exponentiation.  The returned bytes are
            identical either way.

    Returns:
        ``SHA-256(big-endian(peer_public ** private mod p))`` — identical
        for both parties of the exchange.

    Raises:
        ConfigurationError: If ``peer_public`` is outside ``(1, p)``
            (small-subgroup/identity elements are rejected).
    """
    _check_public(peer_public, group)
    cache = None
    if own_public is not None:
        cache = _group_cache(group)
        cached = cache.get(_pair_key(own_public, peer_public))
        if cached is not None:
            return cached
    if isinstance(group, X25519Group):
        derived = _x25519_derive(_x25519_private(private), peer_public)
    else:
        shared = pow(peer_public, private, group.prime)
        derived = _dh_digest(shared, group.prime)
    if cache is not None:
        _remember(cache, own_public, peer_public, derived)
    return derived


def warm_agreement_cache(
    privates: dict[int, int],
    publics: dict[int, int],
    group: KeyAgreementGroup,
) -> int:
    """Batch-derive every unordered pairwise key into the agree cache.

    A simulation-side accelerator: a real deployment computes the
    ``n(n-1)/2`` pairwise agreements on ``n`` machines in parallel, but
    the single-process simulation pays for all of them serially.  This
    sweep runs the whole cohort's exponentiations as one lane-per-pair
    vectorised square-and-multiply and memoises the results, so every
    subsequent :func:`agree`/:func:`agree_batch` call — client *or*
    server — is a dictionary hit.  Derived bytes are identical to the
    scalar path; groups beyond the limb-split kernels are skipped (the
    on-demand scalar path still works).

    Args:
        privates: Private exponent per participant index.
        publics: Matching public element (``g^private``) per index.
        group: The common group.

    Returns:
        Number of pairwise keys derived (0 if skipped or trivial).
    """
    from repro.linalg.modular import (
        LIMB_SPLIT_MAX_MODULUS,
        pow_mod_elementwise,
    )

    indices = sorted(privates)
    if len(indices) < 2:
        return 0
    if isinstance(group, X25519Group):
        # No batched kernel for the curve — but each unordered pair is
        # still derived once (native scalar mults) instead of once per
        # endpoint, and recovery agreements become dictionary hits.
        module = _require_x25519()
        private_keys = [_x25519_private(privates[i]) for i in indices]
        peer_keys = [
            module.X25519PublicKey.from_public_bytes(
                publics[i].to_bytes(32, "little")
            )
            for i in indices
        ]
        sha256 = hashlib.sha256
        cache = _group_cache(group)
        count = 0
        for lo in range(len(indices)):
            pub_lo = publics[indices[lo]]
            for hi in range(lo + 1, len(indices)):
                derived = sha256(
                    private_keys[lo].exchange(peer_keys[hi])
                ).digest()
                _remember(cache, pub_lo, publics[indices[hi]], derived)
                count += 1
        return count
    if group.prime > LIMB_SPLIT_MAX_MODULUS:
        return 0
    private_array = np.asarray(
        [privates[i] for i in indices], dtype=np.uint64
    )
    public_array = np.asarray([publics[i] for i in indices], dtype=np.uint64)
    lo_lane, hi_lane = np.triu_indices(len(indices), k=1)
    shared = pow_mod_elementwise(
        public_array[hi_lane], private_array[lo_lane], group.prime
    ).tolist()
    pub_lo = public_array[lo_lane].tolist()
    pub_hi = public_array[hi_lane].tolist()
    cache = _group_cache(group)
    for a, b, value in zip(pub_lo, pub_hi, shared):
        _remember(cache, a, b, _dh_digest(value, group.prime))
    return len(shared)


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
    from repro.linalg.modular import LIMB_SPLIT_MAX_MODULUS, pow_mod

    results: list[bytes | None] = [None] * len(peer_publics)
    missing: list[int] = []
    if own_public is None:
        for position, peer_public in enumerate(peer_publics):
            _check_public(peer_public, group)
            missing.append(position)
    else:
        # Cached pairs were already range-checked when first derived, so
        # the hot (all-hits) path is one dict probe per peer; validation
        # runs only for misses before any exponentiation.
        cache = _group_cache(group)
        cache_get = cache.get
        for position, peer_public in enumerate(peer_publics):
            cached = cache_get(_pair_key(own_public, peer_public))
            if cached is not None:
                results[position] = cached
            else:
                _check_public(peer_public, group)
                missing.append(position)
    if missing:
        if isinstance(group, X25519Group):
            private_key = _x25519_private(private)
            derived_values = [
                _x25519_derive(private_key, peer_publics[position])
                for position in missing
            ]
        else:
            prime = group.prime
            if (
                prime <= LIMB_SPLIT_MAX_MODULUS
                and len(missing) > SCALAR_BATCH_MAX
            ):
                bases = np.asarray(
                    [peer_publics[position] for position in missing],
                    dtype=np.uint64,
                )
                shared_values = pow_mod(bases, private, prime).tolist()
            else:
                shared_values = [
                    pow(peer_publics[position], private, prime)
                    for position in missing
                ]
            derived_values = [
                _dh_digest(shared, prime) for shared in shared_values
            ]
        cache = _group_cache(group) if own_public is not None else None
        for position, derived in zip(missing, derived_values):
            results[position] = derived
            if cache is not None:
                _remember(cache, own_public, peer_publics[position], derived)
    return results  # type: ignore[return-value]
