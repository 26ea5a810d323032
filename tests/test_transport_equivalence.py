"""Cross-transport equivalence: one protocol core, identical sums.

The sans-I/O refactor's acceptance gate: the synchronous in-memory
transport (``run_bonawitz``), the simulated-clock mailbox transport
(``AsyncSecAggRound``) and the sharded backends (inline and process
pool) all drive the same :mod:`repro.secagg.statemachine` sessions — so on a fixed seed they must
produce **bit-identical** aggregate sums, pinned here against digests
captured from the pre-refactor implementation and against the
survivors' direct modular sum (the sharded-vs-flat oracle).
"""

import hashlib

import numpy as np
import pytest

from repro.secagg.bonawitz import (
    ROUND_MASKED_INPUT,
    ROUND_UNMASK,
    run_bonawitz,
)
from repro.secagg.kernels import DEFAULT_MASK_PRG
from repro.secagg.tree import run_composition_round
from repro.simulation import (
    AsyncSecAggRound,
    ClientPlan,
    ProcessBackend,
    HierarchicalSecAggRound,
    SimulatedClock,
)

MODULUS = 2**16
DIMENSION = 24
NUM_CLIENTS = 12

#: SHA-256 of the modular sum produced by the *pre-refactor* drivers on
#: this exact scenario (seed 20260729 inputs, seed 42 protocol rng,
#: clients 3 and 9 dropping at masked-input and unmask respectively).
#: Both transports produced this digest before the sans-I/O extraction;
#: both must keep producing it.
PRE_REFACTOR_DROPOUT_DIGEST = (
    "669f94e57b8d7f3addebafe0f8a00e5e04c54d45a7399c928f074a40c6ac4949"
)

#: Pre-refactor digest of the 3-shard composed sum, all clients online.
PRE_REFACTOR_SHARDED_DIGEST = (
    "928b2be2af72b1aaeb4093235c07e6e40be54636ab298e25aec65ec5e4aae08a"
)

#: Wire bytes ``run_sync`` moved, and the sum digest and wire bytes of a
#: composition round over the first four input rows (protocol rng seed
#: 42), captured before both were moved onto the in-memory loop (now
#: ``drive_phases``).  Every
#: frame carries the suite name ``"shake256"``.  The digests are older
#: than every wire format and unchanged; the byte counts are wire
#: format 4's (format 1 moved 31 129 and 4 467 B, format 2 19 244 and
#: 2 892 B, format 3 15 177 and 2 480 B).  Format 3 fixed every width on
#: the wire, so the counts follow from the layout alone (19-byte frame
#: header); format 4 shares a toy-group key as its one base-p digit, not
#: two base-2^60 limbs, so an envelope is 16 B, not 24:
#:
#: * ``run_sync`` — 12 clients, 3 silent from masked-input, 9 from
#:   unmask: 11 survivors, one dropout, 10 responders, d = 24 at 16 bits.
#:   Advertise up 12 x 63, roster down 12 x (24 + 12 + 16 x 12), share-keys
#:   up 12 x (31 + 12 x 16) and down 12 x (31 + 12 + 12 x 16), masked
#:   input 11 x (28 + 48), unmask request 11 x (27 + 12), unmask response
#:   10 x (32 + 8 x 11 + 8 x 1): 11 533 B in 92 frames.  Every id list
#:   is one byte an id (the ids 1..12 are the gaps 1, 0, 0, ...); format
#:   4 wrote them as u32, 3 bytes more an id in the 12 rosters, the 12
#:   deliveries and the 11 requests (2 x 432 + 396 = 1 260 B): 12 793 B.
#:   Format 3 was
#:   8 B more per envelope each way (2 x 12 x 12 x 8 = 2 304 B) and 8 B
#:   more per response (10 x 8 = 80 B): 15 177 B.  Format 2 sent
#:   the roster as 144 frames of 43 B (-3 024 B), an advertisement 3 B
#:   longer (-36 B) and a response of 238 B, its ``peers`` and ``xs``
#:   columns and the key section's point, count and length prefixes
#:   (-1 020 B); the last 13 B are keys and share values it happened to
#:   encode a byte short.
#: * The composition round — 4 clients, none silent: share-keys up
#:   4 x (31 + 4 x 16) and down 4 x (31 + 4 + 4 x 16): 2 080 B in 32
#:   frames.  Format 4's u32 ids were 3 bytes more an id in 4 rosters, 4
#:   deliveries and 4 requests of 4 ids (3 x 48 = 144 B): 2 224 B, and
#:   2 x 4 x 4 x 8 = 256 B under format 3's 2 480 B.  Format 3's roster
#:   was 4 x 104 B instead of format 2's 4 x 4 x 43 (-272 B), its
#:   advertisements 4 x 3 B shorter (-12 B) and its responses 4 x 64 B
#:   instead of 4 x 96 (-128 B).
SYNC_WIRE_BYTES = 11533
COMPOSITION_DIGEST = (
    "822ad40a27d80aed4d40ee93d880e5ccc0ac4c45c7c4862a253fd28527606152"
)
COMPOSITION_WIRE_BYTES = 2080


@pytest.fixture
def inputs():
    rng = np.random.default_rng(20260729)
    return rng.integers(
        0, MODULUS, size=(NUM_CLIENTS, DIMENSION), dtype=np.int64
    )


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def run_sync(inputs):
    return run_bonawitz(
        inputs,
        MODULUS,
        threshold=7,
        rng=np.random.default_rng(42),
        dropouts={3: ROUND_MASKED_INPUT, 9: ROUND_UNMASK},
    )


def run_mailbox(inputs):
    vectors = {u + 1: inputs[u] for u in range(NUM_CLIENTS)}
    clock = SimulatedClock()
    secagg_round = AsyncSecAggRound(
        vectors=vectors,
        modulus=MODULUS,
        threshold=7,
        clock=clock,
        rng=np.random.default_rng(42),
        plans={
            3: ClientPlan(drop_phase=ROUND_MASKED_INPUT),
            9: ClientPlan(drop_phase=ROUND_UNMASK),
        },
    )
    return clock.run(secagg_round.run())


def run_sharded(inputs, backend):
    vectors = {u + 1: inputs[u] for u in range(NUM_CLIENTS)}
    clock = SimulatedClock()
    sharded = HierarchicalSecAggRound(
        vectors=vectors,
        modulus=MODULUS,
        clock=clock,
        rng=np.random.default_rng(42),
        topology="3",
        backend=backend,
    )
    return sharded.execute()


class TestPreRefactorGoldens:
    def test_sync_transport_matches_pre_refactor_bits(self, inputs):
        outcome = run_sync(inputs)
        assert outcome.included == frozenset(range(1, 13)) - {3}
        assert digest(outcome.modular_sum) == PRE_REFACTOR_DROPOUT_DIGEST

    def test_in_memory_rounds_move_the_pinned_bytes(self, inputs):
        """The two callers of the shared in-memory loop build their
        sessions from the same RNG draws as before it was shared."""
        assert DEFAULT_MASK_PRG.name == "shake256"
        assert run_sync(inputs).wire.total_bytes == SYNC_WIRE_BYTES
        total, wire = run_composition_round(
            list(inputs[:4]), MODULUS, np.random.default_rng(42)
        )
        assert digest(total) == COMPOSITION_DIGEST
        assert wire.total_bytes == COMPOSITION_WIRE_BYTES

    def test_mailbox_transport_matches_pre_refactor_bits(self, inputs):
        outcome = run_mailbox(inputs)
        assert outcome.included == frozenset(range(1, 13)) - {3}
        assert digest(outcome.modular_sum) == PRE_REFACTOR_DROPOUT_DIGEST

    def test_sharded_inline_matches_pre_refactor_bits(self, inputs):
        outcome = run_sharded(inputs, "inline")
        assert digest(outcome.modular_sum) == PRE_REFACTOR_SHARDED_DIGEST


class TestCrossTransportIdentity:
    def test_sync_and_mailbox_agree_bit_for_bit(self, inputs):
        sync_outcome = run_sync(inputs)
        mailbox_outcome = run_mailbox(inputs)
        assert sync_outcome.included == mailbox_outcome.included
        np.testing.assert_array_equal(
            sync_outcome.modular_sum, mailbox_outcome.modular_sum
        )

    def test_every_transport_equals_the_survivors_direct_sum(self, inputs):
        # The sharded-vs-flat oracle: whatever the transport, the output
        # is exactly the included clients' plain modular sum.
        for outcome in (run_sync(inputs), run_mailbox(inputs)):
            reference = np.mod(
                inputs[[u - 1 for u in sorted(outcome.included)]].sum(axis=0),
                MODULUS,
            )
            np.testing.assert_array_equal(outcome.modular_sum, reference)

    def test_sharded_backends_agree_bit_for_bit(self, inputs):
        inline = run_sharded(inputs, "inline")
        with ProcessBackend(max_workers=2) as backend:
            pooled = run_sharded(inputs, backend)
        assert pooled.included == inline.included
        assert pooled.completed_at == inline.completed_at
        assert digest(pooled.modular_sum) == digest(inline.modular_sum)
        assert digest(inline.modular_sum) == PRE_REFACTOR_SHARDED_DIGEST


class TestWireAccountingAcrossTransports:
    def test_both_flat_transports_move_the_same_message_counts(self, inputs):
        sync_stats = run_sync(inputs).wire
        mailbox_stats = run_mailbox(inputs).wire
        sync_phases = sync_stats.phase_totals()
        mailbox_phases = mailbox_stats.phase_totals()
        assert set(sync_phases) == set(mailbox_phases)
        for phase, totals in sync_phases.items():
            assert totals["up_messages"] == (
                mailbox_phases[phase]["up_messages"]
            )
            assert totals["down_messages"] == (
                mailbox_phases[phase]["down_messages"]
            )

    def test_sharded_outcome_merges_shard_ledgers(self, inputs):
        outcome = run_sharded(inputs, "inline")
        assert outcome.wire is not None
        assert set(outcome.wire.client_totals()) == set(range(1, 13))
        assert outcome.wire.total_bytes > 0
