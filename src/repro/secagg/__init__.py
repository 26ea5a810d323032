"""Secure-aggregation substrate: the Bonawitz et al. protocol.

The black-box contract the paper's DP analysis relies on — reveal only
the modular sum over ``Z_m`` — is the ideal functionality
:func:`repro.linalg.modular.sum_mod`, which the paper pipeline
(:mod:`repro.mechanisms`, :mod:`repro.core`) sums through; this package
is the protocol that realises it.  Two layers:

* :mod:`repro.secagg.bonawitz` — the four-round Bonawitz et al. crypto
  state machines (DH key agreement, Shamir-shared seeds, double
  masking, dropout recovery), built on :mod:`repro.secagg.field`,
  :mod:`repro.secagg.shamir`, :mod:`repro.secagg.keys` and
  :mod:`repro.secagg.kernels`.
* :mod:`repro.secagg.wire` + :mod:`repro.secagg.statemachine` — the
  sans-I/O protocol core: typed, versioned, byte-serializable wire
  messages with first-class version/PRG negotiation (``encode_message``
  for every message, plus the array-at-a-time sealed-share codec for
  the one O(n²) leg), pure client/server sessions, and the one
  :class:`~repro.secagg.statemachine.RoundDriver` through which every
  transport (the
  :func:`~repro.secagg.statemachine.drive_in_memory` synchronous loop
  behind :func:`~repro.secagg.bonawitz.run_bonawitz` and the tree's
  composition rounds, the
  :class:`repro.simulation.rounds.AsyncSecAggRound` mailbox and its
  sharded process backend, the :mod:`repro.net` socket server) feeds
  the server session and closes its phases.
"""

from repro.secagg.bonawitz import (
    AggregationOutcome,
    BonawitzClient,
    BonawitzServer,
    run_bonawitz,
)
from repro.secagg.statemachine import (
    PHASE_TAGS,
    ClientSession,
    RoundDriver,
    ServerSession,
    drive_in_memory,
)
from repro.secagg.wire import (
    PROTOCOL_V1,
    SUPPORTED_PROTOCOL_VERSIONS,
    WIRE_FORMAT_VERSION,
    Advertise,
    Hello,
    MaskedInput,
    NegotiatedHeader,
    Reject,
    SealedDelivery,
    SealedUpload,
    UnmaskRequest,
    UnmaskResponse,
    WireStats,
    decode_frames,
    decode_message,
    encode_message,
)
from repro.secagg.compose import COMPOSERS, compose, compose_shard_sums
from repro.secagg.field import DEFAULT_FIELD, MERSENNE_61, PrimeField
from repro.secagg.tree import (
    TreeNode,
    TreeTopology,
    run_composition_round,
)
from repro.secagg.kernels import (
    DEFAULT_MASK_PRG,
    MaskPrg,
    get_mask_prg,
    sum_signed_masks,
)
from repro.secagg.keys import (
    OAKLEY_GROUP_2_PRIME,
    TOY_GROUP,
    DhGroup,
    KeyPair,
    agree,
    generate_keypair,
)
from repro.secagg.shamir import (
    LimbShares,
    Share,
    reconstruct_large_secret,
    reconstruct_quorum,
    reconstruct_secret,
    reconstruct_secrets,
    split_large_secret,
    split_secret,
    split_secrets,
)

__all__ = [
    "Advertise",
    "AggregationOutcome",
    "BonawitzClient",
    "BonawitzServer",
    "COMPOSERS",
    "ClientSession",
    "DEFAULT_FIELD",
    "DEFAULT_MASK_PRG",
    "DhGroup",
    "Hello",
    "KeyPair",
    "LimbShares",
    "MERSENNE_61",
    "MaskPrg",
    "MaskedInput",
    "NegotiatedHeader",
    "OAKLEY_GROUP_2_PRIME",
    "PHASE_TAGS",
    "PROTOCOL_V1",
    "PrimeField",
    "Reject",
    "RoundDriver",
    "SUPPORTED_PROTOCOL_VERSIONS",
    "SealedDelivery",
    "SealedUpload",
    "ServerSession",
    "Share",
    "TOY_GROUP",
    "TreeNode",
    "TreeTopology",
    "UnmaskRequest",
    "UnmaskResponse",
    "WIRE_FORMAT_VERSION",
    "WireStats",
    "agree",
    "compose",
    "compose_shard_sums",
    "decode_frames",
    "decode_message",
    "drive_in_memory",
    "encode_message",
    "generate_keypair",
    "get_mask_prg",
    "reconstruct_large_secret",
    "reconstruct_quorum",
    "reconstruct_secret",
    "reconstruct_secrets",
    "run_bonawitz",
    "run_composition_round",
    "split_large_secret",
    "split_secret",
    "split_secrets",
    "sum_signed_masks",
]
