"""The Bonawitz et al. secure-aggregation protocol (semi-honest variant).

The paper uses SecAgg [10] as a black box, and its own pipeline
(:mod:`repro.mechanisms`, :mod:`repro.core`) sums through the ideal
functionality — :func:`repro.linalg.modular.sum_mod`, the modular sum
and nothing else.  This module implements the protocol that realises it
— the four-round state machine of Bonawitz et al. (CCS 2017, "Practical
Secure Aggregation for Privacy-Preserving Machine Learning") — so the
repository also demonstrates *how* the contract is achieved and how the
system behaves when participants drop out mid-protocol, which is the
protocol's raison d'etre.

Round structure (client set shrinks monotonically: ``U0 ⊇ U1 ⊇ U2 ⊇ U3``):

0. **AdvertiseKeys** — every client publishes two Diffie-Hellman public
   keys: ``c_u`` (pairwise channel encryption) and ``s_u`` (pairwise mask
   agreement).
1. **ShareKeys** — every client samples a self-mask seed ``b_u``,
   Shamir-shares both ``b_u`` and its mask private key ``s_u^SK`` (as
   its base-``p`` digits in the sharing field) among the round-0
   roster, and uploads the shares sealed per recipient (the server
   routes ciphertexts it cannot read).
2. **MaskedInputCollection** — every client uploads
   ``y_u = x_u + PRG(b_u) + Σ_{v<u} -PRG(s_uv) + Σ_{v>u} +PRG(s_uv)
   mod m`` where ``s_uv`` is the DH-agreed pairwise seed over the
   round-1 survivor set ``U1``.
3. **Unmasking** — the server reveals who survived.  Each responding
   client returns its share of ``b_v`` for survivors ``v ∈ U2`` and its
   share of ``s_v^SK`` for dropouts ``v ∈ U1 \\ U2`` — never both for the
   same ``v`` (the core security rule; a client answers one request a
   round, so no sequence of requests gets both either).  With ``t``
   responses the server reconstructs the missing masks and recovers
   ``Σ_{u ∈ U2} x_u mod m``.

Dropouts are injected via a schedule mapping client index to the first
round in which it stops responding; recovery succeeds whenever at least
``threshold`` clients reach round 3.

Every quadratic inner loop is one batched call, shared by clients and
the server: per-peer mask expansion and summation and per-recipient
envelope sealing run on :mod:`repro.secagg.kernels`, per-recipient share
generation and per-survivor reconstruction on
:mod:`repro.secagg.shamir`.  Masks are expanded by SHAKE-256
(:class:`~repro.secagg.kernels.MaskPrg`), one XOF call per mask.

Layering: this module holds the *crypto* state machines
(:class:`BonawitzClient` / :class:`BonawitzServer`) operating on live
Python objects.  The wire-level protocol — typed, versioned,
byte-serializable messages and the sans-I/O sessions that exchange them
— lives in :mod:`repro.secagg.wire` and
:mod:`repro.secagg.statemachine`; :func:`run_bonawitz` below is the
synchronous in-memory *transport* over those sessions (the
simulated-clock mailbox transport is
:class:`repro.simulation.rounds.AsyncSecAggRound`).
"""

from __future__ import annotations

import dataclasses
import struct
from collections.abc import Iterable

import numpy as np

from repro.errors import AggregationError, ConfigurationError
from repro.secagg.field import DEFAULT_FIELD, PrimeField
from repro.secagg.kernels import (
    MaskPrg,
    get_mask_prg,
    keystream_batch,
    sum_signed_masks,
)
from repro.secagg.keys import (
    KeyAgreementGroup,
    KeyPair,
    agree,
    agree_batch,
    forget_agreements,
    generate_keypair,
    key_bits,
    largest_private_key,
    oakley_group,
    warm_agreement_cache,
)
from repro.secagg.shamir import (
    LimbShares,
    _secret_limbs,
    reconstruct_quorum,
    split_secrets,
)

from repro.secagg.wire import (
    Advertise,
    Roster,
    UnmaskRequest,
    UnmaskResponse,
    WireStats,
)
from repro.telemetry.registry import MetricsRegistry

#: Protocol round identifiers, for dropout schedules and error messages.
ROUND_ADVERTISE = 0
ROUND_SHARE_KEYS = 1
ROUND_MASKED_INPUT = 2
ROUND_UNMASK = 3

_SEED_WIDTH = 16  # bytes used to serialise a self-mask seed for the PRG

#: Bytes per share value in an envelope.  Every sharing field fits
#: uint64 (:class:`~repro.secagg.field.PrimeField` refuses anything the
#: limb-split kernels cannot carry), so the width is not a choice.
_SHARE_VALUE_BYTES = 8


def _validate_inputs(inputs: np.ndarray, modulus: int) -> np.ndarray:
    """Check that ``inputs`` is an ``(n, d)`` integer array over ``Z_m``."""
    inputs = np.asarray(inputs)
    if inputs.ndim != 2:
        raise AggregationError(
            f"expected a (participants, dimension) array, got ndim={inputs.ndim}"
        )
    if not np.issubdtype(inputs.dtype, np.integer):
        raise AggregationError(
            f"SecAgg inputs must be integers, got dtype={inputs.dtype}"
        )
    if inputs.size and (inputs.min() < 0 or inputs.max() >= modulus):
        raise AggregationError(
            f"SecAgg inputs must lie in [0, {modulus}), got range "
            f"[{inputs.min()}, {inputs.max()}]"
        )
    return inputs.astype(np.int64)


def _key_limbs(group: KeyAgreementGroup, field: PrimeField) -> int:
    """Base-``field.prime`` digits every mask key of ``group`` is padded
    to: those of the group's largest private key
    (:func:`~repro.secagg.keys.largest_private_key`).  On the default
    field that is 1 on ``TOY_GROUP`` (its keys are field elements), 5 on
    x25519 and 17 on Oakley-2."""
    return len(_secret_limbs(largest_private_key(group), field))


def public_key_length(group: KeyAgreementGroup) -> int:
    """Bytes one public key of ``group`` takes on the wire: the group's
    width (8 on the toy group, 32 on x25519, 128 on Oakley-2), whatever
    the key's value."""
    return -(-key_bits(group) // 8)


def sealed_share_length(group: KeyAgreementGroup, field: PrimeField) -> int:
    """Byte length of every sealed share-keys envelope of a round.

    A seed share value plus one value per base-``field.prime`` digit of
    the group's mask key (:func:`_key_limbs`), each
    :data:`_SHARE_VALUE_BYTES` wide — and nothing else: the Shamir point
    is the recipient's 1-based position in the sorted roster and the
    digit count is the group's and the field's, so neither is sent.  On
    the default field that is 16 bytes on ``TOY_GROUP``, 48 on x25519
    and 144 on Oakley-2.  Clients pad to it
    (:meth:`BonawitzClient.share_keys_matrix`) and both sides validate
    against it, so a share-keys upload is one matrix whose shape no
    participant gets to choose.
    """
    return _SHARE_VALUE_BYTES * (1 + _key_limbs(group, field))


#: Keystream key of the ``sender -> recipient`` envelope: the 32-byte
#: channel key, then both ids.  The channel key is symmetric: alone it
#: would seal ``u -> v`` and ``v -> u`` under one stream, whose two
#: ciphertexts XOR to the two plaintexts' XOR.  With the counter a block
#: input is 48 bytes, one SHA-256 compression.
_stream_key = struct.Struct("<32sII").pack


def _encode_payload_matrix(
    seed_ys: np.ndarray, limb_ys: np.ndarray
) -> np.ndarray:
    """One sender's plaintext envelopes for its whole roster.

    Args:
        seed_ys: ``(n,)`` uint64 seed-share values, recipient order.
        limb_ys: ``(num_limbs, n)`` uint64 key-share values, one row per
            digit of the key.

    Returns:
        ``(n, 8 * (1 + num_limbs))`` uint8 matrix; row ``j`` is
        recipient ``j``'s seed share value, then its share of each key
        digit, lowest first, every one :data:`_SHARE_VALUE_BYTES`
        little-endian.
    """
    words = np.vstack([seed_ys[np.newaxis], limb_ys]).T
    return np.ascontiguousarray(words, dtype="<u8").view(np.uint8)


def _decode_payload_matrix(plain: np.ndarray) -> list[list[int]]:
    """Inverse of :func:`_encode_payload_matrix` over equal-length rows:
    the word table, one ``[seed_y, limb_ys...]`` row of Python ints per
    payload in one C pass.  No share object is built — of a round's
    ``n²`` rows the unmask phase reads one seed value each and the limbs
    of the dropouts' only."""
    return np.ascontiguousarray(plain).view("<u8").tolist()


class BonawitzClient:
    """One participant's state across the four protocol rounds.

    Args:
        index: The client's unique nonzero identifier (also its Shamir
            evaluation point).
        vector: The private input, a length-``d`` integer vector over
            ``Z_m``.
        modulus: The aggregation modulus ``m``.
        threshold: The Shamir reconstruction threshold ``t``.
        rng: Client-local randomness.
        group: The DH group for both key pairs.
        field: The Shamir sharing field.
        mask_prg: The mask PRG instance whose memo this client fills
            (default :data:`~repro.secagg.kernels.DEFAULT_MASK_PRG`).
    """

    def __init__(
        self,
        index: int,
        vector: np.ndarray,
        modulus: int,
        threshold: int,
        rng: np.random.Generator,
        group: KeyAgreementGroup,
        field: PrimeField = DEFAULT_FIELD,
        mask_prg: MaskPrg | None = None,
    ) -> None:
        if index < 1:
            raise ConfigurationError(f"client index must be >= 1, got {index}")
        self.index = index
        self._vector = np.asarray(vector, dtype=np.int64)
        self._modulus = modulus
        self._threshold = threshold
        self._rng = rng
        self._group = group
        self._field = field
        self._mask_prg = get_mask_prg(mask_prg)
        self._group_limbs = _key_limbs(group, field)
        self._channel_keys = None  # type: KeyPair | None
        self._mask_keys = None  # type: KeyPair | None
        # The roster as broadcast — members in sorted order, the two key
        # columns in that order — and each member's position in it.
        self._roster: Roster | None = None
        self._positions: dict[int, int] = {}
        self._self_seed: int | None = None
        # Sender -> the [seed_y, limb_ys...] row it addressed to this
        # client, as decoded; all of them sit at ``_point``.
        self._received: dict[int, list[int]] = {}
        # This client's Shamir point: every client shares over the
        # sorted roster at x = 1..n, so it is the 1-based position there.
        self._point = 0
        self._channel_key_cache: dict[int, bytes] = {}
        # One masked input and one unmask answer a round.
        self._masked = False
        self._unmasked = False

    def advertise_keys(self) -> Advertise:
        """Round 0: generate both key pairs and publish the public halves."""
        self._channel_keys = generate_keypair(self._rng, self._group)
        self._mask_keys = generate_keypair(self._rng, self._group)
        return Advertise(
            index=self.index,
            channel_public=self._channel_keys.public,
            mask_public=self._mask_keys.public,
            width=public_key_length(self._group),
        )

    def _channel_key(self, peer: int) -> bytes:
        """Derive (and memoise) the symmetric channel key for ``peer``."""
        assert self._channel_keys is not None
        key = self._channel_key_cache.get(peer)
        if key is None:
            key = agree(
                self._channel_keys.private,
                self._roster.channel_keys[self._positions[peer]],
                self._group,
                own_public=self._channel_keys.public,
            )
            self._channel_key_cache[peer] = key
        return key

    def share_keys_matrix(
        self, roster: Roster
    ) -> tuple[tuple[int, ...], np.ndarray]:
        """Round 1: sample ``b_u`` and seal its shares for the roster.

        Args:
            roster: The server's broadcast of every member's keys, in
                sorted order (the wire refuses any other); its columns
                are read as they are.

        Returns:
            ``(recipients, sealed)`` where row ``i`` of the ``(n, L)``
            uint8 matrix is the ciphertext bound for ``recipients[i]``
            (the sorted roster, self included; the self-addressed row
            needs no sealing) and ``L`` is :func:`sealed_share_length`.
            The wire layer sends the matrix as one frame.

        Raises:
            AggregationError: If the roster is smaller than the threshold
                or does not contain this client, or on a second roster
                (one ``b_u`` a round; a refused roster does not use it up).
        """
        if self._channel_keys is None or self._mask_keys is None:
            raise AggregationError("share_keys called before advertise_keys")
        if self._self_seed is not None:
            raise AggregationError(
                f"client {self.index} already shared this round's keys and "
                "refuses another roster"
            )
        recipients = roster.indices
        if len(recipients) < self._threshold:
            raise AggregationError(
                f"roster of {len(recipients)} cannot meet threshold "
                f"{self._threshold}"
            )
        positions = dict(zip(recipients, range(len(recipients))))
        if self.index not in positions:
            raise AggregationError("client missing from its own roster")
        self._roster = roster
        self._positions = positions
        self._point = positions[self.index] + 1
        self._self_seed = int(self._rng.integers(0, self._field.prime))
        # One split covers the self-mask seed and every base-p digit of
        # the mask private key: all polynomials share the evaluation
        # points, so they batch into a single Horner kernel call.
        limbs = _secret_limbs(self._mask_keys.private, self._field)
        # Pad to the group's fixed digit count: every client's envelopes
        # then share one byte length, so an upload is one matrix and a
        # recipient needs no digit count.  (Zero digits share and
        # reconstruct like any other value.)
        limbs += [0] * (self._group_limbs - len(limbs))
        share_matrix = split_secrets(
            [self._self_seed] + limbs,
            self._threshold,
            len(recipients),
            self._rng,
            self._field,
        )
        payloads = _encode_payload_matrix(share_matrix[0], share_matrix[1:])
        # Seal every peer-bound payload in one keystream batch; the
        # self-addressed envelope needs no sealing.  Channel keys for
        # the whole roster are agreed in one batch first.
        peer_positions = [
            position
            for position, recipient in enumerate(recipients)
            if recipient != self.index
        ]
        missing = [
            position
            for position in peer_positions
            if recipients[position] not in self._channel_key_cache
        ]
        if missing:
            self._channel_key_cache.update(
                zip(
                    [recipients[position] for position in missing],
                    agree_batch(
                        self._channel_keys.private,
                        [roster.channel_keys[position] for position in missing],
                        self._group,
                        own_public=self._channel_keys.public,
                    ),
                )
            )
        streams = keystream_batch(
            [
                _stream_key(self._channel_key_cache[v], self.index, v)
                for v in recipients
                if v != self.index
            ],
            payloads.shape[1],
        )
        sealed = payloads.copy()
        sealed[peer_positions] = np.bitwise_xor(
            payloads[peer_positions], streams
        )
        return recipients, sealed

    def receive_share_matrix(
        self, senders: list[int], ciphertexts: np.ndarray
    ) -> None:
        """Store the round-1 envelopes addressed to this client.

        The wire layer hands the routed mailbox over as sender ids plus
        an ``(n, L)`` uint8 ciphertext matrix; the peer rows are opened
        in one batched keystream sweep (the self-addressed row was never
        sealed) and all rows decoded with one vectorised payload parse.
        Every share is taken at this client's own Shamir point and at
        the group's digit count — an envelope has nowhere to say
        otherwise.  The sender column is ``U1``, so it is held to what
        :meth:`masked_input` needs before anything is stored.

        Raises:
            AggregationError: If ``L`` is not the round's
                :func:`sealed_share_length`, a sender is repeated or not
                on the roster, or :meth:`masked_input` would refuse the
                senders as ``U1``.
        """
        participants = frozenset(senders)
        self._check_participants(participants)
        expected = sealed_share_length(self._group, self._field)
        if ciphertexts.shape[1] != expected:
            raise AggregationError(
                f"client {self.index} received {ciphertexts.shape[1]}-byte "
                f"envelopes; this round's are {expected} bytes"
            )
        if len(participants) != len(senders):
            raise AggregationError(
                f"client {self.index} received a delivery that names a "
                "sender twice"
            )
        strangers = participants - self._positions.keys()
        if strangers:
            raise AggregationError(
                f"client {self.index} received envelopes from clients "
                f"{sorted(strangers)}, who are not on the roster"
            )
        peer_rows = [
            row for row, sender in enumerate(senders)
            if sender != self.index
        ]
        plain = np.array(ciphertexts)
        if peer_rows:
            plain[peer_rows] ^= keystream_batch(
                [
                    _stream_key(self._channel_key(u), u, self.index)
                    for u in (senders[row] for row in peer_rows)
                ],
                expected,
            )
        self._received = dict(zip(senders, _decode_payload_matrix(plain)))

    def _check_participants(self, participants: frozenset[int]) -> None:
        """What ``U1`` must satisfy for this client to mask over it."""
        if self._masked:
            raise AggregationError(
                f"client {self.index} already uploaded this round's masked "
                "input and refuses another: two over different participant "
                "sets differ by bare pairwise masks"
            )
        if self.index not in participants:
            raise AggregationError("client excluded from the participant set")
        if len(participants) < self._threshold:
            raise AggregationError(
                f"client {self.index} refuses to mask over "
                f"{len(participants)} participants; threshold is "
                f"{self._threshold}"
            )

    def masked_input(self, participants: frozenset[int]) -> np.ndarray:
        """Round 2: upload the doubly masked input vector.

        The self mask and every signed pairwise mask are expanded and
        summed in one batched kernel call.

        Args:
            participants: ``U1`` — the clients whose shares round 1
                delivered; pairwise masks are computed over exactly this
                set.

        Returns:
            ``y_u`` over ``Z_m``.

        Raises:
            AggregationError: Before ``share_keys``; if ``participants``
                leaves this client out or is smaller than the threshold
                (below it the peers' unmask answers would hand the
                server ``b_u``); or on a second call.
        """
        if self._self_seed is None or self._mask_keys is None:
            raise AggregationError("masked_input called before share_keys")
        self._check_participants(participants)
        dimension = self._vector.shape[0]
        peers = [peer for peer in sorted(participants) if peer != self.index]
        seeds = [self._self_seed.to_bytes(_SEED_WIDTH, "little")]
        seeds += agree_batch(
            self._mask_keys.private,
            [self._roster.mask_keys[self._positions[peer]] for peer in peers],
            self._group,
            own_public=self._mask_keys.public,
        )
        signs = [1] + [1 if self.index < peer else -1 for peer in peers]
        total_mask = sum_signed_masks(
            seeds, signs, dimension, self._modulus, self._mask_prg
        )
        self._masked = True
        return np.mod(
            np.mod(self._vector, self._modulus) + total_mask, self._modulus
        )

    def _check_unmask_request(self, request: UnmaskRequest) -> None:
        if self._unmasked:
            raise AggregationError(
                f"client {self.index} already answered this round's unmask "
                "request and refuses another: a second one could name as "
                "dropout a peer the first named as survivor"
            )
        overlap = request.survivors & request.dropouts
        if overlap:
            raise AggregationError(
                "refusing unmask request: clients "
                f"{sorted(overlap)} named as both survivor and dropout"
            )
        unknown = (request.survivors | request.dropouts) - set(self._received)
        if unknown:
            raise AggregationError(
                f"no shares held for clients {sorted(unknown)}"
            )

    def unmask_columns(self, request: UnmaskRequest) -> UnmaskResponse:
        """Round 3: reveal the requested shares, as columns.

        The client enforces the protocol's core security rule: it refuses
        any request naming the same peer as both survivor and dropout,
        because revealing both ``b_v`` and ``s_v^SK`` would let the server
        unmask ``v``'s individual input — and, for the same reason, any
        request after the one it answered (a refused request does not
        use the answer up).  The reply is the requested share values
        alone, as arrays in the request's sorted order (encoded, and
        recovered by the server, without per-share objects).

        Raises:
            AggregationError: On an overlapping (malicious) request, a
                request naming peers this client never received shares
                from, or a second request.
        """
        self._check_unmask_request(request)
        self._unmasked = True
        received = self._received
        dropouts = sorted(request.dropouts)
        return UnmaskResponse(
            responder=self.index,
            seed_shares=np.asarray(
                [received[v][0] for v in sorted(request.survivors)],
                dtype=np.uint64,
            ),
            key_shares=np.asarray(
                [received[v][1:] for v in dropouts], dtype=np.uint64
            ).reshape(len(dropouts), self._group_limbs),
        )


def forget_round_memos(
    group: KeyAgreementGroup, mask_prg: MaskPrg | None = None
) -> None:
    """Drop the previous round's key agreements and mask-PRG rows.

    Key pairs and mask seeds are fresh every round, so nothing a
    finished round memoised can be hit again: whoever opens a round —
    :func:`warm_pairwise_agreements` for the in-memory and simulated
    drivers, ``run_swarm`` and ``SecAggServer._run_round`` on sockets —
    calls this first, and both memos hold one round's entries whatever
    the transport.  Memos only: derived bytes cannot change.
    """
    forget_agreements(group)
    get_mask_prg(mask_prg).forget()


def warm_pairwise_agreements(clients: "list[BonawitzClient]") -> int:
    """Simulation accelerator: pre-derive every pairwise DH key at once.

    Real deployments run the ``n(n-1)/2`` pairwise agreements on ``n``
    machines in parallel; a single-process simulation pays for them
    serially, one small batch per client.  Given the simulated clients
    (which the driver owns anyway), this derives both key sets' pairwise
    agreements in two lane-per-pair vectorised sweeps and warms the
    shared memo, so the per-client protocol code — unchanged, still one
    code path with the server — finds every agreement precomputed.
    Purely an optimisation: derived keys are byte-identical.  A roster
    of at most 15 pairs (six parties; a tree's composition rounds have
    two to a handful) is left on demand, where the two near-fixed-cost
    table sweeps lose: sweep vs on-demand agreement of both key sets
    (``TOY_GROUP``, 2 vCPUs, best of 400) at 2 / 4 / 6 / 7 / 8 / 10
    parties is 666 / 603 / 624 / 675 / 694 / 792 us vs 57 / 260 / 609 /
    861 / 1 100 / 1 770 us.

    A round's keys and seeds are fresh, so the call first drops whatever
    earlier rounds left in the memos (:func:`forget_round_memos`): they
    then hold one round's entries, not every round's since the process
    started.

    Args:
        clients: Simulated participants; ones that have not advertised
            keys yet are skipped.

    Returns:
        Number of pairwise keys derived (0 when left on demand).
    """
    advertised = [
        client
        for client in clients
        if client._channel_keys is not None and client._mask_keys is not None
    ]
    if not advertised:
        return 0
    group = advertised[0]._group
    forget_round_memos(group, advertised[0]._mask_prg)
    if len(advertised) * (len(advertised) - 1) // 2 <= 15:
        return 0
    warmed = warm_agreement_cache(
        {c.index: c._channel_keys.private for c in advertised},
        {c.index: c._channel_keys.public for c in advertised},
        group,
    )
    warmed += warm_agreement_cache(
        {c.index: c._mask_keys.private for c in advertised},
        {c.index: c._mask_keys.public for c in advertised},
        group,
    )
    return warmed


class BonawitzServer:
    """The aggregation server: routes messages and recovers the sum.

    The server is honest-but-curious: it follows the protocol but sees
    every transmitted byte; the tests assert those bytes are individually
    uninformative (marginally uniform messages, sealed envelopes).

    Args:
        modulus: Aggregation modulus ``m``.
        dimension: Vector length ``d``.
        threshold: Shamir threshold ``t``.
        field: Shamir sharing field (must match the clients').
        group: DH group (must match the clients'; default
            :func:`~repro.secagg.keys.oakley_group`).
        mask_prg: The mask PRG instance whose memo recovery fills
            (default :data:`~repro.secagg.kernels.DEFAULT_MASK_PRG`).
    """

    def __init__(
        self,
        modulus: int,
        dimension: int,
        threshold: int,
        field: PrimeField = DEFAULT_FIELD,
        group: KeyAgreementGroup | None = None,
        mask_prg: MaskPrg | None = None,
    ) -> None:
        if threshold < 2:
            raise ConfigurationError(
                f"threshold must be >= 2 for any privacy, got {threshold}"
            )
        if group is None:
            group = oakley_group()
        self._modulus = modulus
        self._dimension = dimension
        self._threshold = threshold
        self._field = field
        self._group = group
        self._mask_prg = get_mask_prg(mask_prg)
        self._group_limbs = _key_limbs(group, field)
        self._mask_publics: dict[int, int] = {}
        # Client index -> its Shamir point: every client shares over the
        # sorted roster at x = 1..n, so a recipient's point is its
        # 1-based position there.
        self._points: dict[int, int] = {}
        self._share_senders: frozenset[int] = frozenset()
        self._masked: dict[int, np.ndarray] = {}

    def collect_advertisements(
        self, advertisements: list[Advertise]
    ) -> Roster:
        """Round 0: gather public keys and broadcast the roster."""
        roster: dict[int, Advertise] = {}
        for message in advertisements:
            if message.index in roster:
                raise AggregationError(
                    f"duplicate advertisement from client {message.index}"
                )
            roster[message.index] = message
        if len(roster) < self._threshold:
            raise AggregationError(
                f"only {len(roster)} clients advertised keys; "
                f"threshold is {self._threshold}"
            )
        members = tuple(sorted(roster))
        self._points = {
            index: position for position, index in enumerate(members, start=1)
        }
        self._mask_publics = {
            index: roster[index].mask_public for index in members
        }
        return Roster(
            members,
            tuple(roster[index].channel_public for index in members),
            tuple(self._mask_publics.values()),
            public_key_length(self._group),
        )

    def register_share_keys(self, senders: "Iterable[int]") -> frozenset[int]:
        """Round 1: record ``U1``, the clients that shared keys.

        The wire layer routes the sealed envelopes itself as opaque
        ciphertext matrices (the server cannot read them anyway), so
        none reach the crypto server; this owns the threshold check and the ``U1`` set
        the later phases validate against.

        Raises:
            AggregationError: If fewer than ``threshold`` clients shared
                keys.
        """
        senders = frozenset(senders)
        if len(senders) < self._threshold:
            raise AggregationError(
                f"only {len(senders)} clients shared keys; "
                f"threshold is {self._threshold}"
            )
        self._share_senders = senders
        return senders

    @property
    def share_participants(self) -> frozenset[int]:
        """``U1`` — clients that completed the key-sharing round."""
        return self._share_senders

    def check_masked_input(self, sender: int, vector: np.ndarray) -> None:
        """Refuse a masked input that is not a ``d``-vector over ``Z_m``.

        Checked per upload — at ingest, where the sender can still be
        named and evicted — so one malformed vector costs its sender the
        round and nobody else.  The alphabet check is what a coordinate
        width cannot give a modulus that is not a power of two.

        Raises:
            AggregationError: Naming the sender and what is off.
        """
        if vector.shape != (self._dimension,):
            raise AggregationError(
                f"client {sender} sent dimension {vector.shape[0]}, "
                f"expected {self._dimension}"
            )
        if vector.size and not 0 <= vector.min() <= vector.max() < self._modulus:
            raise AggregationError(
                f"client {sender}'s masked input must lie in "
                f"[0, {self._modulus}), got range "
                f"[{vector.min()}, {vector.max()}]"
            )

    def collect_masked_inputs(
        self, masked_by_sender: dict[int, np.ndarray]
    ) -> UnmaskRequest:
        """Round 2: gather masked vectors; announce survivors/dropouts.

        The vectors themselves were held to :meth:`check_masked_input`
        as they arrived.

        Raises:
            AggregationError: If fewer than ``threshold`` masked inputs
                arrived, or one came from outside ``U1``.
        """
        if len(masked_by_sender) < self._threshold:
            raise AggregationError(
                f"only {len(masked_by_sender)} masked inputs; threshold is "
                f"{self._threshold}"
            )
        unknown = set(masked_by_sender) - set(self._share_senders)
        if unknown:
            raise AggregationError(
                f"masked input from clients outside U1: {sorted(unknown)}"
            )
        self._masked.update(masked_by_sender)
        survivors = frozenset(self._masked)
        dropouts = self._share_senders - survivors
        return UnmaskRequest(survivors=survivors, dropouts=frozenset(dropouts))

    def check_unmask_response(self, response: UnmaskResponse) -> None:
        """Refuse a round-3 response that is not what the round fixed.

        An honest response is determined in shape by the round alone:
        one seed share per survivor, one key share per announced dropout
        at the group's digit count, every value in the field.  Whose
        share each value is and where it sits are not on the wire — the
        request's sorted order and the responder's Shamir point (its
        1-based position in the sorted roster) — so there is nothing
        else to get wrong.  Checking that per response — at ingest,
        where the sender can still be named and evicted — is what lets
        :meth:`recover_sum` treat the quorum as one point set.

        Raises:
            AggregationError: Naming the responder and the first thing
                that is off.
        """
        who = f"client {response.responder}"
        if response.responder not in self._points:
            raise AggregationError(f"{who} is not on the round's roster")
        survivors = len(self._masked)
        if response.seed_shares.shape != (survivors,):
            raise AggregationError(
                f"{who} sent {len(response.seed_shares)} seed shares; the "
                f"round has {survivors} survivors"
            )
        dropouts = sorted(self._share_senders - set(self._masked))
        count, limbs = response.key_shares.shape
        if count != len(dropouts):
            raise AggregationError(
                f"{who} sent {count} key shares; the announced dropouts "
                f"are {dropouts}"
            )
        if limbs != self._group_limbs:
            raise AggregationError(
                f"{who} sent key shares of {limbs} digits; the group's keys "
                f"have {self._group_limbs}"
            )
        prime = self._field.prime
        for what, values in (
            ("seed", response.seed_shares),
            ("key", response.key_shares),
        ):
            if values.size and int(values.max()) >= prime:
                raise AggregationError(
                    f"{who} sent a {what} share value outside [0, {prime})"
                )

    def recover_sum(self, responses: "list[UnmaskResponse]") -> np.ndarray:
        """Round 3: reconstruct missing masks and output the modular sum.

        The first ``threshold`` responses are the quorum.  Each is held
        to :meth:`check_unmask_response`, so the quorum is one point set
        and everything it reveals — every survivor's self-mask seed and
        every digit of every dropout's mask key — is reconstructed in one
        :func:`~repro.secagg.shamir.reconstruct_quorum` call from one
        Lagrange weight vector, however many clients dropped.  All
        lingering masks are then removed with one batched signed-mask
        expansion.

        Returns:
            ``Σ_{u ∈ U2} x_u mod m`` as a length-``d`` int64 array.

        Raises:
            AggregationError: If fewer than ``threshold`` responses arrive
                or shares are inconsistent.
        """
        if len(responses) < self._threshold:
            raise AggregationError(
                f"only {len(responses)} unmask responses; threshold is "
                f"{self._threshold}"
            )
        survivors = sorted(self._masked)
        dropouts = sorted(self._share_senders - set(self._masked))
        quorum = responses[: self._threshold]
        for response in quorum:
            self.check_unmask_response(response)
        total = np.zeros(self._dimension, dtype=np.int64)
        for vector in self._masked.values():
            total = np.mod(total + vector, self._modulus)
        # Each response's columns are already in sorted order, so the
        # per-survivor share rows are one stack-and-transpose away, and
        # every share sits at its responder's roster point.
        points = [self._points[response.responder] for response in quorum]
        key_shares = np.stack(
            [response.key_shares for response in quorum], axis=1
        ).tolist()
        seeds, privates = reconstruct_quorum(
            points,
            np.stack([response.seed_shares for response in quorum]).T.tolist(),
            [
                [LimbShares(x, tuple(ys)) for x, ys in zip(points, rows)]
                for rows in key_shares
            ],
            self._field,
        )
        # ``lingering`` is subtracted wholesale, so each queued mask
        # carries the sign it contributed to the aggregate with: +1 for
        # every self-mask, the original pairwise sign for dropout pairs.
        mask_seeds = [seed.to_bytes(_SEED_WIDTH, "little") for seed in seeds]
        mask_signs = [1] * len(mask_seeds)
        for dropout, private in zip(dropouts, privates):
            # The survivor's lingering term for the pair (s, d) was
            # +PRG when s < d and -PRG when s > d.
            mask_seeds += agree_batch(
                private,
                [self._mask_publics[s] for s in survivors],
                self._group,
                own_public=self._mask_publics[dropout],
            )
            mask_signs += [
                1 if survivor < dropout else -1 for survivor in survivors
            ]
        lingering = sum_signed_masks(
            mask_seeds,
            mask_signs,
            self._dimension,
            self._modulus,
            self._mask_prg,
        )
        return np.mod(total - lingering, self._modulus)


@dataclasses.dataclass(frozen=True)
class AggregationOutcome:
    """Result of a full protocol run.

    Attributes:
        modular_sum: ``Σ_{u ∈ included} x_u mod m``.
        included: Indices (1-based) of clients whose input made the sum.
        dropped: Indices that dropped out at some round.
        wire: Message/byte accounting for the round, when the transport
            recorded it.
    """

    modular_sum: np.ndarray
    included: frozenset[int]
    dropped: frozenset[int]
    wire: "WireStats | None" = None


def run_bonawitz(
    inputs: np.ndarray,
    modulus: int,
    threshold: int,
    rng: np.random.Generator,
    group: KeyAgreementGroup | None = None,
    dropouts: dict[int, int] | None = None,
    field: PrimeField = DEFAULT_FIELD,
    metrics: MetricsRegistry | None = None,
) -> AggregationOutcome:
    """Execute the full four-round protocol over simulated clients.

    Args:
        inputs: ``(n, d)`` integer array, one row per client, over
            ``Z_m``.  Client ``i`` (0-based row) gets protocol index
            ``i + 1``.
        modulus: Aggregation modulus ``m``.
        threshold: Shamir threshold ``t`` (``2 <= t <= n``).
        rng: Randomness for keys, seeds and share polynomials.
        group: Key-agreement backend; defaults to the fast 61-bit toy
            group — pass :func:`repro.secagg.keys.oakley_group()` for the
            1024-bit Oakley group or
            :data:`repro.secagg.keys.X25519_GROUP` for native Curve25519
            (refused with :class:`~repro.errors.ConfigurationError` when
            the optional ``cryptography`` package is absent).
        dropouts: Optional map from client index (1-based) to the first
            round (0-3) at which that client stops responding.
        field: Shamir sharing field.
        metrics: Registry the sessions and the driver meter the round
            into; by default nothing is metered.

    Returns:
        The aggregation outcome.

    Raises:
        AggregationError: If dropouts push any round below ``threshold``.
        ConfigurationError: On inconsistent parameters.
    """
    # Imported here: the sans-I/O sessions live above this module in the
    # layering (statemachine imports the crypto classes defined here).
    from repro.secagg.keys import TOY_GROUP
    from repro.secagg.statemachine import (
        ClientSession,
        ServerSession,
        drive_in_memory,
    )

    inputs = _validate_inputs(np.asarray(inputs), modulus)
    num_clients, dimension = inputs.shape
    if not 2 <= threshold <= num_clients:
        raise ConfigurationError(
            f"threshold must lie in [2, {num_clients}], got {threshold}"
        )
    group = group if group is not None else TOY_GROUP
    dropouts = dict(dropouts or {})
    for index, round_id in dropouts.items():
        if not 1 <= index <= num_clients:
            raise ConfigurationError(f"dropout index {index} out of range")
        if not ROUND_ADVERTISE <= round_id <= ROUND_UNMASK:
            raise ConfigurationError(f"dropout round {round_id} out of range")

    def alive(index: int, round_id: int) -> bool:
        return dropouts.get(index, ROUND_UNMASK + 1) > round_id

    sessions = {
        i
        + 1: ClientSession(
            index=i + 1,
            vector=inputs[i],
            modulus=modulus,
            threshold=threshold,
            rng=np.random.default_rng(rng.integers(0, 2**63 - 1)),
            group=group,
            field=field,
            metrics=metrics,
        )
        for i in range(num_clients)
    }
    server = ServerSession(
        modulus, dimension, threshold, field, group, metrics=metrics
    )

    # A client that dropped at a phase neither receives nor responds
    # from then on (it stopped talking).
    drive_in_memory(server, sessions, responds=alive, metrics=metrics)

    included = server.included
    return AggregationOutcome(
        modular_sum=server.modular_sum,
        included=included,
        dropped=frozenset(range(1, num_clients + 1)) - included,
        wire=server.stats,
    )
