"""Cross-transport equivalence: one protocol core, identical sums.

The sans-I/O refactor's acceptance gate: the synchronous in-memory
transport (``run_bonawitz``), the simulated-clock mailbox transport
(``AsyncSecAggRound``) and the sharded process backends (shared-memory
and pickle vector transports) all drive the same
:mod:`repro.secagg.statemachine` sessions — so on a fixed seed they must
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
from repro.simulation import (
    AsyncSecAggRound,
    ClientPlan,
    ProcessBackend,
    HierarchicalSecAggRound,
    SimulatedClock,
    get_execution_backend,
    shared_memory_available,
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

    @pytest.mark.skipif(
        not shared_memory_available(),
        reason="platform lacks POSIX shared memory",
    )
    def test_sharded_backends_agree_bit_for_bit(self, inputs):
        inline = run_sharded(inputs, "inline")
        shm_backend = ProcessBackend(max_workers=2)
        try:
            shm = run_sharded(inputs, shm_backend)
        finally:
            shm_backend.close()
        pickle_backend = get_execution_backend("process-pickle")
        try:
            pickled = run_sharded(inputs, pickle_backend)
        finally:
            pickle_backend.close()
        assert shm_backend.name == "process"
        assert pickle_backend.name == "process-pickle"
        for outcome in (shm, pickled):
            assert outcome.included == inline.included
            assert outcome.completed_at == inline.completed_at
            np.testing.assert_array_equal(
                outcome.modular_sum, inline.modular_sum
            )
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
