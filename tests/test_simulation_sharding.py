"""Sharded secure aggregation: partition, backends, composition.

The load-bearing invariant — asserted exhaustively by a hypothesis
property test over random dropout schedules — is that the outer modular
composition of shard sums is *bit-identical* to the flat modular sum
over the same survivor set, under any partition, any per-shard dropout
pattern, and either execution backend.
"""

import hashlib
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AggregationError, ConfigurationError
from repro.secagg import compose
from repro.secagg.bonawitz import ROUND_ADVERTISE, ROUND_UNMASK
from repro.secagg.tree import partition_members
from repro.simulation import (
    ClientPlan,
    InlineBackend,
    ProcessBackend,
    HierarchicalSecAggRound,
    SimulatedClock,
    SimulationTrace,
    get_execution_backend,
)
from repro.simulation.sharding import MIN_SHARD_SIZE, ShardTask, run_shard

MODULUS = 2**12
DIMENSION = 16


def make_vectors(num_clients, seed=0):
    rng = np.random.default_rng(seed)
    return {
        u: rng.integers(0, MODULUS, size=DIMENSION, dtype=np.int64)
        for u in range(1, num_clients + 1)
    }


def flat_sum(vectors, included):
    total = np.zeros(DIMENSION, dtype=np.int64)
    for u in included:
        total = np.mod(total + vectors[u], MODULUS)
    return total


def make_tasks(num_clients=6, shards=2):
    vectors = make_vectors(num_clients)
    return [
        ShardTask(
            shard_index=index,
            vectors={u: vectors[u] for u in members},
            modulus=MODULUS,
            threshold=2,
            start_time=0.0,
            entropy=7,
            plans={},
            phase_timeout=10.0,
        )
        for index, members in enumerate(partition_members(vectors, shards))
    ]


def digests(reports):
    return [
        hashlib.sha256(report.outcome.modular_sum.tobytes()).hexdigest()
        for report in reports
    ]


def run_sharded(vectors, shards, plans=None, backend="inline", seed=1,
                threshold_fraction=0.6, phase_timeout=60.0, trace=False):
    clock = SimulatedClock()
    trace_log = SimulationTrace(clock) if trace else None
    sharded = HierarchicalSecAggRound(
        vectors=vectors,
        modulus=MODULUS,
        clock=clock,
        rng=np.random.default_rng(seed),
        topology=str(shards),
        threshold_fraction=threshold_fraction,
        plans=plans,
        phase_timeout=phase_timeout,
        backend=backend,
        trace=trace_log,
    )
    outcome = sharded.execute()
    return outcome, sharded, clock, trace_log


class TestPartition:
    def test_covers_cohort_exactly(self):
        cohort = tuple(range(1, 23))
        shards = partition_members(cohort, 4)
        flattened = sorted(u for shard in shards for u in shard)
        assert flattened == sorted(cohort)

    def test_balanced_within_one(self):
        sizes = {len(s) for s in partition_members(range(1, 23), 4)}
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic_and_order_insensitive(self):
        cohort = [9, 3, 14, 1, 7, 2]
        assert partition_members(cohort, 2) == partition_members(
            tuple(reversed(cohort)), 2
        )

    def test_caps_shards_at_min_size(self):
        # 5 members cannot form 4 shards of >= 2: capped to 2 shards.
        shards = partition_members(range(1, 6), 4)
        assert len(shards) == 2
        assert all(len(s) >= MIN_SHARD_SIZE for s in shards)

    def test_single_shard_identity(self):
        assert partition_members((1, 2, 3), 1) == [(1, 2, 3)]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            partition_members((1, 2, 3), 0)
        with pytest.raises(ConfigurationError):
            partition_members((), 2)
        with pytest.raises(ConfigurationError):
            partition_members((1, 1, 2), 2)


class TestClearCompose:
    def test_matches_flat_modular_sum(self):
        rng = np.random.default_rng(3)
        chunks = [
            rng.integers(0, MODULUS, size=DIMENSION, dtype=np.int64)
            for _ in range(5)
        ]
        composed, wire = compose(
            [np.mod(c, MODULUS) for c in chunks], MODULUS, "clear"
        )
        assert wire is None and composed.dtype == np.int64
        assert np.array_equal(
            composed, np.mod(np.sum(chunks, axis=0), MODULUS)
        )

    @pytest.mark.parametrize("how", ["clear", "secagg"])
    def test_validation(self, how):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match="at least one"):
            compose([], MODULUS, how, rng=rng)
        with pytest.raises(ConfigurationError, match="one 1-d shape"):
            compose(
                [np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64)],
                MODULUS,
                how,
                rng=rng,
            )


class TestShardedEqualsFlat:
    def test_all_online_sum_exact(self):
        vectors = make_vectors(12)
        outcome, sharded, clock, _ = run_sharded(vectors, shards=3)
        assert sharded.num_shards == 3
        assert outcome.included == frozenset(vectors)
        assert np.array_equal(
            outcome.modular_sum, flat_sum(vectors, outcome.included)
        )
        assert clock.now == outcome.completed_at

    def test_dropouts_excluded_per_shard(self):
        vectors = make_vectors(12)
        plans = {2: ClientPlan(drop_phase=2), 9: ClientPlan(drop_phase=0)}
        outcome, _, _, _ = run_sharded(vectors, shards=3, plans=plans)
        assert {2, 9} <= outcome.dropped
        assert np.array_equal(
            outcome.modular_sum, flat_sum(vectors, outcome.included)
        )

    # Random dropout schedules: each client independently either stays
    # online or crashes at a uniform protocol phase.  The composed
    # modular sum must equal the flat sum over whatever survivor set
    # results — the acceptance-critical equivalence property.
    @settings(max_examples=12, deadline=None)
    @given(
        data=st.data(),
        num_clients=st.integers(min_value=6, max_value=14),
        shards=st.integers(min_value=1, max_value=4),
    )
    def test_random_dropout_schedules(self, data, num_clients, shards):
        vectors = make_vectors(num_clients, seed=num_clients)
        drop_phases = data.draw(
            st.lists(
                st.one_of(
                    st.none(),
                    st.integers(ROUND_ADVERTISE, ROUND_UNMASK),
                ),
                min_size=num_clients,
                max_size=num_clients,
            )
        )
        plans = {
            u: ClientPlan(drop_phase=phase)
            for u, phase in zip(sorted(vectors), drop_phases)
            if phase is not None
        }
        try:
            outcome, _, _, _ = run_sharded(
                vectors, shards=shards, plans=plans, threshold_fraction=0.5
            )
        except AggregationError:
            return  # Every shard below threshold: a legal abort.
        assert np.array_equal(
            outcome.modular_sum, flat_sum(vectors, outcome.included)
        )
        assert outcome.dropped == frozenset(vectors) - outcome.included


class TestShardFailureSemantics:
    def test_failed_shard_drops_members_only(self):
        vectors = make_vectors(8)
        # Partition at k=2 is (1,3,5,7)/(2,4,6,8); kill shard 1 by
        # dropping three of its four members below the 0.75 threshold.
        plans = {
            u: ClientPlan(drop_phase=ROUND_ADVERTISE) for u in (2, 4, 6)
        }
        outcome, _, _, trace = run_sharded(
            vectors, shards=2, plans=plans, threshold_fraction=0.75,
            trace=True,
        )
        assert outcome.included == {1, 3, 5, 7}
        assert outcome.dropped == {2, 4, 6, 8}
        assert np.array_equal(
            outcome.modular_sum, flat_sum(vectors, outcome.included)
        )
        assert trace.count("shard-aborted") == 1

    def test_all_shards_aborted_raises(self):
        vectors = make_vectors(8)
        plans = {
            u: ClientPlan(drop_phase=ROUND_ADVERTISE) for u in vectors
        }
        with pytest.raises(AggregationError, match="all 2 shards aborted"):
            run_sharded(vectors, shards=2, plans=plans)


class TestBackends:
    def test_process_backend_bit_identical_to_inline(self):
        vectors = make_vectors(10)
        plans = {
            3: ClientPlan(drop_phase=2),
            6: ClientPlan(latencies=(0.5, 0.2, 0.1, 0.3)),
        }
        inline_outcome, _, _, _ = run_sharded(
            vectors, shards=2, plans=plans, backend="inline"
        )
        with ProcessBackend(max_workers=2) as backend:
            process_outcome, _, _, _ = run_sharded(
                vectors, shards=2, plans=plans, backend=backend
            )
        assert np.array_equal(
            inline_outcome.modular_sum, process_outcome.modular_sum
        )
        assert inline_outcome.included == process_outcome.included
        assert inline_outcome.completed_at == process_outcome.completed_at

    def test_pool_recovers_after_a_worker_is_killed(self):
        """A dead worker breaks the executor for good; the backend must
        drop it so the next round — the engine reuses one backend for a
        whole run — builds a fresh pool instead of failing forever."""
        tasks = make_tasks()
        expected = InlineBackend().run_shards(tasks)
        with ProcessBackend(max_workers=2) as backend:
            assert digests(backend.run_shards(tasks)) == digests(expected)
            for pid in list(backend._pool._processes):
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(BrokenProcessPool):
                backend.run_shards(tasks)
            recovered = backend.run_shards(tasks)
        assert digests(recovered) == digests(expected)
        assert [r.outcome.included for r in recovered] == [
            r.outcome.included for r in expected
        ]
        assert [r.ended_at for r in recovered] == [
            r.ended_at for r in expected
        ]

    def test_registry_resolution(self):
        assert isinstance(get_execution_backend(None), InlineBackend)
        assert isinstance(get_execution_backend("inline"), InlineBackend)
        assert isinstance(get_execution_backend("process"), ProcessBackend)
        backend = InlineBackend()
        assert get_execution_backend(backend) is backend
        with pytest.raises(ConfigurationError, match="unknown execution"):
            get_execution_backend("thread")


class TestTimingAndTraces:
    def test_round_completes_at_slowest_shard(self):
        vectors = make_vectors(8)
        # Shard of client 2 (partition (1,3,5,7)/(2,4,6,8)) is slowed.
        plans = {2: ClientPlan(latencies=(1.0, 1.0, 1.0, 1.0))}
        outcome, sharded, clock, _ = run_sharded(
            vectors, shards=2, plans=plans
        )
        durations = [
            report.ended_at - report.outcome.started_at
            for report in sharded.last_reports
        ]
        assert outcome.duration == max(durations) == pytest.approx(4.0)
        assert clock.now == outcome.completed_at

    def test_merged_trace_is_shard_annotated_and_time_ordered(self):
        vectors = make_vectors(8)
        _, sharded, _, trace = run_sharded(vectors, shards=2, trace=True)
        merged = [
            event for event in trace.events if "shard" in event.details
        ]
        assert merged
        assert {e.details["shard"] for e in merged} == {0, 1}
        times = [e.time for e in merged]
        assert times == sorted(times)
        assert trace.count("sharded-round-complete") == 1

    def test_run_shard_report_roundtrip(self):
        vectors = make_vectors(4)
        report = run_shard(
            ShardTask(
                shard_index=0,
                vectors=vectors,
                modulus=MODULUS,
                threshold=3,
                start_time=5.0,
                entropy=99,
                plans={},
                phase_timeout=60.0,
            )
        )
        assert report.outcome is not None and report.error is None
        assert report.outcome.started_at == 5.0
        assert np.array_equal(
            report.outcome.modular_sum, flat_sum(vectors, vectors)
        )


class TestDeterminism:
    def test_identical_seeds_replay_identically(self):
        vectors = make_vectors(12)
        plans = {4: ClientPlan(drop_phase=1)}
        first, _, _, _ = run_sharded(vectors, shards=3, plans=plans, seed=7)
        second, _, _, _ = run_sharded(vectors, shards=3, plans=plans, seed=7)
        assert np.array_equal(first.modular_sum, second.modular_sum)
        assert first.included == second.included
        assert first.dropped == second.dropped
        assert first.completed_at == second.completed_at

    def test_different_seeds_still_sum_exactly(self):
        vectors = make_vectors(12)
        for seed in (1, 2, 3):
            outcome, _, _, _ = run_sharded(vectors, shards=3, seed=seed)
            assert np.array_equal(
                outcome.modular_sum, flat_sum(vectors, outcome.included)
            )


class TestValidation:
    def test_empty_cohort_rejected(self):
        with pytest.raises(ConfigurationError):
            HierarchicalSecAggRound(
                vectors={},
                modulus=MODULUS,
                clock=SimulatedClock(),
                rng=np.random.default_rng(0),
                topology="2",
            )

    def test_bad_threshold_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            HierarchicalSecAggRound(
                vectors=make_vectors(6),
                modulus=MODULUS,
                clock=SimulatedClock(),
                rng=np.random.default_rng(0),
                topology="2",
                threshold_fraction=0.0,
            )

    def test_shamir_threshold_shared_rule(self):
        from repro.simulation import shamir_threshold

        assert shamir_threshold(0.6, 48) == 29  # ceil, not floor
        assert shamir_threshold(0.1, 4) == 2  # floor of 2
        assert shamir_threshold(1.0, 7) == 7
        with pytest.raises(ConfigurationError):
            shamir_threshold(0.0, 8)


class TestWirePhaseTraceEvents:
    """Per-phase wire accounting events in the merged sharded trace."""

    def _wire_events(self, trace):
        return [e for e in trace.events if e.kind == "wire-phase"]

    def test_every_shard_emits_all_four_phases(self):
        vectors = make_vectors(8)
        _, _, _, trace = run_sharded(vectors, shards=2, trace=True)
        events = self._wire_events(trace)
        per_shard = {}
        for event in events:
            assert "shard" in event.details
            per_shard.setdefault(event.details["shard"], []).append(
                event.details["phase"]
            )
        expected = ["advertise", "share-keys", "masked-input", "unmask"]
        assert set(per_shard) == {0, 1}
        for phases in per_shard.values():
            assert phases == expected

    def test_merged_events_are_time_sorted(self):
        vectors = make_vectors(12)
        plans = {u: ClientPlan(latencies=(0.1 * u, 0.0, 0.0, 0.0))
                 for u in vectors}
        _, _, _, trace = run_sharded(
            vectors, shards=3, plans=plans, trace=True
        )
        times = [e.time for e in self._wire_events(trace)]
        assert len(times) == 12  # 3 shards x 4 phases
        assert times == sorted(times)

    def test_per_shard_wire_totals_sum_to_outcome_stats(self):
        vectors = make_vectors(8)
        outcome, _, _, trace = run_sharded(vectors, shards=2, trace=True)
        events = self._wire_events(trace)
        for key in ("up_bytes", "down_bytes", "up_messages",
                    "down_messages"):
            assert sum(e.details.get(key, 0) for e in events) == sum(
                totals[key]
                for totals in outcome.wire.phase_totals().values()
            )
        assert sum(
            e.details.get("up_messages", 0)
            + e.details.get("down_messages", 0)
            for e in events
        ) == outcome.wire.total_messages
