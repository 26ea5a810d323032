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

Every party of a round raises the same roster of public keys, each to
its own private exponent.  In a group within the 61-bit limb split the
squaring chain of a roster key is therefore paid once per process, into
a window table of that key (:class:`_KeyTables`, public data), and each
party's batch is then one gather and a product tree; a pair memo
(:class:`_AgreementMemo`, derived secrets) makes the mirror-image
agreement of a pair a dictionary hit.  Small batches of table-less keys
(:data:`SCALAR_BATCH_MAX`), the 1024-bit Oakley group and X25519 take
one scalar exchange a peer.  Every path hashes the same group element,
so the derived bytes never depend on the route.
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
    window_pow,
    window_tables,
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


@functools.cache
def oakley_group() -> DhGroup:
    """The 1024-bit Oakley group, every ``group=None`` default: validated
    (a ~40 ms primality test) once, on first use, never at import."""
    return DhGroup()


#: Lazily imported ``cryptography`` x25519 module; ``False`` once the
#: import has failed (tests monkeypatch this to simulate a missing library).
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
    ``cryptography`` — availability is checked at use time, and a
    session configured for it without the library refuses to start
    (:class:`~repro.errors.ConfigurationError`) rather than fall back to
    a weaker group.

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
    """Bit width of the group's keys, which fixes a public key's width
    on the wire."""
    if isinstance(group, X25519Group):
        return 256
    return group.prime.bit_length()


def largest_private_key(group: KeyAgreementGroup) -> int:
    """The largest private key :func:`generate_keypair` can draw:
    ``p - 2`` on a :class:`DhGroup` (exponents lie in ``[2, p - 2]``),
    ``2^256 - 1`` on x25519 (any 32 raw bytes).  A mask key is
    Shamir-shared as exactly as many field digits as this one has."""
    if isinstance(group, X25519Group):
        return (1 << 256) - 1
    return group.prime - 2


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
    rng: np.random.Generator, group: KeyAgreementGroup | None = None
) -> KeyPair:
    """Sample a fresh DH key pair.

    Args:
        rng: Randomness source for the private exponent.
        group: The DH group to draw from (default :func:`oakley_group`).

    Returns:
        A consistent (private, public) pair.
    """
    if group is None:
        group = oakley_group()
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
    """One group's rows, and the pairs merged in since the last clear.

    The rows hold derived secrets, so they live only as long as a
    round; the public keys' window tables (:class:`_KeyTables`) that
    fill them on a miss are a separate memo, dropped with them by
    :func:`forget_agreements`.
    """

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

#: Window width of the roster keys' tables: row ``k``, column ``w`` of a
#: key's table is ``pk^(w·2^(4k)) mod p``, 16 rows of 16 columns (2 KiB)
#: for a 61-bit group, so one key raised to a private exponent is 16
#: gathered entries folded in 4 multiplies.
_TABLE_WINDOW = 4

#: Bound on the window tables held per group, counted in keys: every key
#: of one full-cohort 512-client round (two key sets) with headroom,
#: 4 MiB on ``TOY_GROUP``.  Like the pair memo it is a backstop for a
#: caller that opens no round, and it is cleared outright when passed.
_TABLE_CACHE_MAX = 2_048


class _KeyTables:
    """One group's window tables, keyed by public key: public data only
    (the pair memo beside it holds derived secrets).

    The tables are stacked in one array, so raising any set of held keys
    to one private exponent is one :func:`~repro.linalg.modular.window_pow`.
    """

    def __init__(self, prime: int) -> None:
        self.prime = prime
        self.clear()

    def clear(self) -> None:
        self.lanes: dict[int, int] = {}
        self.stack: np.ndarray | None = None

    def add(self, publics: list[int]) -> None:
        """Hold the tables of ``publics``, building the missing ones (all
        of them when the bound clears the memo first)."""
        publics = list(dict.fromkeys(publics))
        missing = [key for key in publics if key not in self.lanes]
        if len(self.lanes) + len(missing) > _TABLE_CACHE_MAX:
            self.clear()
            missing = publics
        built = window_tables(
            missing, self.prime, _TABLE_WINDOW, (self.prime - 1).bit_length()
        )
        first = len(self.lanes)
        self.lanes.update(zip(missing, range(first, first + len(missing))))
        self.stack = (
            built if self.stack is None else np.concatenate([self.stack, built])
        )

    def power(self, publics: list[int], private: int) -> np.ndarray:
        """``pk^private mod p`` for held keys, one lane a key."""
        return window_pow(
            self.stack,
            list(map(self.lanes.__getitem__, publics)),
            private % (self.prime - 1),
            self.prime,
        )


_table_caches: dict[int, _KeyTables] = {}

#: Largest batch of table-less peers still raised with scalar ``pow``;
#: more make :func:`agree_batch` build their tables first.  Measured on
#: ``TOY_GROUP`` (``python -m pytest benchmarks/test_kernel_throughput.py
#: -k crossover -s``, best of 9, 2 vCPUs, numpy 2.4): a scalar ``pow``
#: costs 15-18 us, a build ~0.55 ms plus ~7 us a key, an evaluation
#: from held tables 60-100 us whatever the lane count.  One batch alone
#: pays its build back only at ~65 lanes (60 lanes: 0.94-1.07 ms scalar
#: against 1.05-1.40 ms), but the batch opens a roster whose other
#: members evaluate from the same tables: a roster of ``lanes + 1``
#: parties agreeing through the pair memo costs 93-105 us against
#: 0.75-1.14 ms at 3 lanes, 1.8-2.0 against 1.6-1.7 ms at 15 and 28-32
#: against 5.8-8.3 ms at 60, so the roster crosses at 15-17 lanes.  A
#: tree's two-to-six-party composition rounds stay on scalar ``pow``.
SCALAR_BATCH_MAX = 15

#: Fewest lanes worth one evaluation from held tables; a smaller batch
#: takes scalar ``pow`` even when every table is held.  Measured on
#: ``TOY_GROUP`` as above (``-k crossover``, four runs): an evaluation
#: costs 52-125 us whatever the lane count, a scalar ``pow`` 13-20 us a
#: lane, so the two tie at 5-6 lanes (5: 67-111 us scalar against
#: 56-111 from tables; 6: 81-114 against 59-120) and scalar wins below
#: (4: 64-77 against 94-95).
#: In a roster the last few parties to agree (each has every earlier
#: pair memoised) are the batches this catches.
TABLE_POWER_MIN = 5


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


def _key_tables(group: DhGroup) -> _KeyTables:
    return _table_caches.setdefault(group.prime, _KeyTables(group.prime))


def forget_agreements(group: KeyAgreementGroup) -> None:
    """Drop every memoised agreement of ``group``, and its key tables.

    Memo only: a later :func:`agree` re-derives byte-identical keys.
    """
    _group_cache(group).clear()
    if isinstance(group, DhGroup):
        _key_tables(group).clear()


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
    """Derive shared seeds with many peers at once.

    Byte-identical to calling :func:`agree` per peer.  In a group that
    fits the limb-split kernels, peers missing from the pair memo are
    raised to ``private`` from their window tables, one gather and a
    product tree for the whole batch, when every one of them has a
    table; when more than :data:`SCALAR_BATCH_MAX` have none, those
    tables are built first — with ``own_public``'s, so the rest of the
    roster finds it — in one vectorised pass.  A batch with fewer
    table-less peers, a batch of fewer than :data:`TABLE_POWER_MIN`
    peers, and every batch of a bigger group take scalar ``pow``.

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
    elif group.prime > LIMB_SPLIT_MAX_MODULUS:
        shared = [pow(peer, private, group.prime) for peer in peers]
        derived = _dh_keys(shared, group.prime)
    else:
        derived = _dh_keys(
            _table_powers(private, peers, group, own_public), group.prime
        )
    for at, key in zip(missing, derived):
        results[at] = key
    if own_public is not None:
        rows = {peer: {own_public: key} for peer, key in zip(peers, derived)}
        rows.setdefault(own_public, {}).update(zip(peers, derived))
        memo.merge(rows, len(derived))
    return results  # type: ignore[return-value]


def _table_powers(
    private: int, peers: list[int], group: DhGroup, own_public: int | None
) -> np.ndarray | list[int]:
    """``peer^private mod p`` per (range-checked) peer of a group within
    the limb split: from the peers' window tables when all are held and
    there are at least :data:`TABLE_POWER_MIN`, or after building them
    when more than :data:`SCALAR_BATCH_MAX` are not; else by scalar
    ``pow``."""
    tables, prime = _key_tables(group), group.prime
    unheld = [peer for peer in peers if peer not in tables.lanes]
    if len(unheld) > SCALAR_BATCH_MAX:
        # The caller's own key too, for the rest of the roster.
        roster = peers if own_public is None else peers + [own_public]
        tables.add([key for key in roster if 1 < key < prime])
    elif unheld or len(peers) < TABLE_POWER_MIN:
        return [pow(peer, private, prime) for peer in peers]
    return tables.power(peers, private)
