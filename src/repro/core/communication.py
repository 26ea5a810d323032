"""Communication-cost model for the bitwidth/utility trade-off.

The paper's central experimental axis is the per-dimension communication
constraint ``m`` ("a larger m ... increases the communication cost,
slowing down the aggregation process ... especially with a
communication-intensive secure aggregation protocol", Section 4).  This
module turns that discussion into numbers: bytes uploaded per client per
round, the Bonawitz protocol's per-round overhead, and whole-run totals
— so the ablation benchmarks can report *accuracy per megabyte*, the
quantity a deployment actually optimises.

The model is the wire, not a description of it: a masked input is
``ceil(d * ceil(log2 m) / 8)`` payload bytes because that is what
:mod:`repro.secagg.wire` packs, and the protocol's per-phase costs are
the lengths of the frames a dropout-free round's client really sends
(:func:`bonawitz_round_cost` encodes one of each), so
``tests/test_communication.py`` can hold both equal to a live round's
:class:`~repro.secagg.wire.WireStats`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.secagg.bonawitz import public_key_length, sealed_share_length
from repro.secagg.kernels import DEFAULT_MASK_PRG
from repro.secagg.keys import KeyAgreementGroup, oakley_group, suite_name
from repro.secagg.wire import (
    PROTOCOL_V1,
    Advertise,
    Hello,
    MaskedInput,
    SealedUpload,
    UnmaskResponse,
    encode_message,
    intern_header,
    modulus_bits,
)


def payload_bits(dimension: int, modulus: int) -> int:
    """Bits of one masked-input vector: ``d * ceil(log2 m)``.

    Args:
        dimension: Vector length ``d`` (after Walsh-Hadamard padding).
        modulus: The group modulus ``m``.

    Raises:
        ConfigurationError: On non-positive dimension or modulus < 2.
    """
    if dimension < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
    if modulus < 2:
        raise ConfigurationError(f"modulus must be >= 2, got {modulus}")
    return dimension * modulus_bits(modulus)


def client_upload_bytes(dimension: int, modulus: int) -> int:
    """Bytes of the round-2 masked input one client uploads: the payload
    of its masked-input frame."""
    return -(-payload_bits(dimension, modulus) // 8)


def central_upload_bytes(dimension: int) -> int:
    """Bytes a *centralised* DPSGD client would upload (float32 gradient).

    The centralised baseline has no modulus constraint; its natural wire
    format is a float32 per dimension.
    """
    if dimension < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
    return 4 * dimension


@dataclasses.dataclass(frozen=True)
class SecAggRoundCost:
    """Per-client upload of one Bonawitz protocol execution, in bytes
    on the wire (frame headers included).

    Attributes:
        advertise: Round 0 — the Hello and two public keys.
        share_keys: Round 1 — one sealed envelope per roster member.
        masked_input: Round 2 — the ``d``-vector over ``Z_m``.
        unmask: Round 3 — one revealed seed share per survivor (a
            dropout-free round reveals no key share).
    """

    advertise: int
    share_keys: int
    masked_input: int
    unmask: int

    @property
    def total(self) -> int:
        """Total upload bytes per client per round."""
        return (
            self.advertise + self.share_keys + self.masked_input + self.unmask
        )

    @property
    def overhead_fraction(self) -> float:
        """Protocol bytes as a fraction of the total (0 when the masked
        input dominates — the large-``d`` regime the paper targets)."""
        protocol = self.advertise + self.share_keys + self.unmask
        return protocol / self.total if self.total else 0.0


def bonawitz_round_cost(
    num_clients: int,
    dimension: int,
    modulus: int,
    group: KeyAgreementGroup | None = None,
) -> SecAggRoundCost:
    """Per-client upload of one full, dropout-free Bonawitz round.

    Each phase is the length of the datagram a client of such a round
    sends, measured by encoding one: the frame layouts live in
    :mod:`repro.secagg.wire` and nowhere else.  The round is a default
    one — the default mask PRG suite and sharing field.  Every width on
    the wire is the round's, never the values', so this is every
    client's upload to the byte.

    Args:
        num_clients: Participants ``n`` in the aggregation.
        dimension: Vector length ``d``.
        modulus: Group modulus ``m``.
        group: Key-agreement group; by default the 1024-bit Oakley
            group a deployment would use, not the simulations' toy one.

    Returns:
        The per-round cost breakdown; the masked input is ``O(d log m)``
        and the protocol overhead ``O(n)``, matching the protocol's
        published complexity.
    """
    if num_clients < 2:
        raise ConfigurationError(
            f"num_clients must be >= 2, got {num_clients}"
        )
    if group is None:
        group = oakley_group()
    # The header such a round negotiates.
    header = intern_header(
        PROTOCOL_V1, suite_name(DEFAULT_MASK_PRG.name, group)
    )
    width = public_key_length(group)

    def frame(message) -> int:
        return len(encode_message(message, header))

    return SecAggRoundCost(
        advertise=frame(Hello(1)) + frame(Advertise(1, 0, 0, width)),
        share_keys=frame(
            SealedUpload(
                1,
                np.zeros(
                    (num_clients, sealed_share_length(group)), dtype=np.uint8
                ),
            )
        ),
        masked_input=frame(
            MaskedInput(
                1, np.zeros(dimension, dtype=np.int64), modulus_bits(modulus)
            )
        ),
        unmask=frame(
            UnmaskResponse(
                1,
                seed_shares=np.zeros(num_clients, dtype=np.uint64),
                key_shares=np.zeros((0, 0), dtype=np.uint64),
            )
        ),
    )


@dataclasses.dataclass(frozen=True)
class TrainingCommunication:
    """Whole-run communication of an FL training job.

    Attributes:
        rounds: Training rounds ``T``.
        expected_batch: Expected participants per round ``|B|``.
        per_client_round_bytes: Upload per participating client per round.
        total_bytes: Expected total client-to-server upload over the run.
    """

    rounds: int
    expected_batch: int
    per_client_round_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.rounds * self.expected_batch * self.per_client_round_bytes

    @property
    def total_megabytes(self) -> float:
        return self.total_bytes / 2**20


def training_communication(
    dimension: int,
    modulus: int | None,
    rounds: int,
    expected_batch: int,
    include_protocol: bool = False,
) -> TrainingCommunication:
    """Expected upload volume of a full training run.

    Args:
        dimension: Model dimension ``d`` (padded).
        modulus: Group modulus ``m``; ``None`` means the centralised
            float baseline.
        rounds: Training rounds ``T``.
        expected_batch: Expected participants per round.
        include_protocol: Add the Bonawitz per-round protocol overhead
            (keys, shares, unmasking) on top of the payload.

    Returns:
        The run's communication summary.
    """
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    if expected_batch < 1:
        raise ConfigurationError(
            f"expected_batch must be >= 1, got {expected_batch}"
        )
    if modulus is None:
        per_round = central_upload_bytes(dimension)
    elif include_protocol:
        per_round = bonawitz_round_cost(
            max(expected_batch, 2), dimension, modulus
        ).total
    else:
        per_round = client_upload_bytes(dimension, modulus)
    return TrainingCommunication(
        rounds=rounds,
        expected_batch=expected_batch,
        per_client_round_bytes=per_round,
    )


def compression_ratio(dimension: int, modulus: int) -> float:
    """How much smaller the ``Z_m`` wire format is than float32.

    The paper's headline operating point ``m = 2^8`` gives ratio 4 (one
    byte per parameter versus four).
    """
    return central_upload_bytes(dimension) / client_upload_bytes(
        dimension, modulus
    )
