"""Telemetry wired through the simulation stack, end to end.

Three layers are exercised with a live :class:`MetricsRegistry`
attached: the async round driver (phase latencies, outcome/dropout/
timeout counters, per-phase wire counters that must reconcile exactly
with the outcome's :class:`WireStats`), the sharded round (per-shard
labels surviving the worker -> parent snapshot merge on both
backends), and the engine (the :class:`MetricsReport` on the result,
plus the invariant that metering never perturbs the simulation —
identical parameter digests with telemetry on and off).
"""

import math

import numpy as np
import pytest

from repro.errors import AggregationError, ConfigurationError
from repro.simulation import (
    AsyncSecAggRound,
    BernoulliDropout,
    ClientPlan,
    ProcessBackend,
    HierarchicalSecAggRound,
    SimulatedClock,
    SimulationConfig,
    SimulationEngine,
)
from repro.telemetry import (
    PHASE_ORDER,
    MetricsRegistry,
    MetricsReport,
    parse_prometheus,
)

MODULUS = 2**12
DIMENSION = 16


def make_vectors(num_clients, seed=0):
    rng = np.random.default_rng(seed)
    return {
        u: rng.integers(0, MODULUS, size=DIMENSION, dtype=np.int64)
        for u in range(1, num_clients + 1)
    }


def run_metered_round(vectors, threshold=None, plans=None,
                      phase_timeout=60.0, client_versions=None, seed=1):
    clock = SimulatedClock()
    registry = MetricsRegistry()
    secagg_round = AsyncSecAggRound(
        vectors=vectors,
        modulus=MODULUS,
        threshold=threshold or max(2, len(vectors) // 2 + 1),
        clock=clock,
        rng=np.random.default_rng(seed),
        plans=plans,
        phase_timeout=phase_timeout,
        client_versions=client_versions,
        metrics=registry,
    )
    outcome = clock.run(secagg_round.run())
    return outcome, MetricsReport(snapshot=registry.snapshot())


class TestRoundMetrics:
    def test_completed_round_full_catalog(self):
        vectors = make_vectors(6)
        outcome, report = run_metered_round(vectors, threshold=4)

        assert report.counter("secagg_rounds_total", outcome="completed") == 1
        # One observation per phase, on both clocks, and the simulated
        # phase durations partition the round's simulated duration.
        sim_total = 0.0
        for phase in PHASE_ORDER:
            sim = report.snapshot.aggregate(
                "secagg_phase_sim_duration_seconds", phase=phase
            )
            wall = report.snapshot.aggregate(
                "secagg_phase_wall_duration_seconds", phase=phase
            )
            assert sim is not None and sim.count == 1
            assert wall is not None and wall.count == 1
            sim_total += sim.sum
        assert sim_total == pytest.approx(outcome.duration)
        # Every client's Hello was accepted; frames flowed both ways
        # for both roles.
        assert report.counter(
            "secagg_negotiations_total", outcome="accepted"
        ) == len(vectors)
        for role in ("server", "client"):
            for direction in ("in", "out"):
                assert report.counter(
                    "secagg_frames_total", role=role, direction=direction
                ) > 0

    def test_wire_counters_reconcile_with_outcome_stats(self):
        vectors = make_vectors(6)
        outcome, report = run_metered_round(vectors, threshold=4)
        assert report.counter_sum(
            "secagg_wire_bytes_total"
        ) == outcome.wire.total_bytes
        assert report.counter_sum(
            "secagg_wire_messages_total"
        ) == outcome.wire.total_messages
        # And per phase/direction, against the outcome's own ledger.
        for tag, totals in outcome.wire.phase_totals().items():
            for direction in ("up", "down"):
                assert report.counter(
                    "secagg_wire_bytes_total", phase=tag, direction=direction
                ) == totals[f"{direction}_bytes"]

    def test_dropout_counted_under_its_phase(self):
        vectors = make_vectors(8)
        plans = {
            2: ClientPlan(drop_phase=2),
            5: ClientPlan(drop_phase=2),
        }
        outcome, report = run_metered_round(vectors, threshold=5, plans=plans)
        assert outcome.dropped == frozenset({2, 5})
        assert report.counter(
            "secagg_clients_dropped_total", phase="masked-input"
        ) == 2
        assert report.counter_sum("secagg_clients_dropped_total") == 2

    def test_straggler_timeout_counted(self):
        vectors = make_vectors(6)
        plans = {3: ClientPlan(latencies=(500.0, 0.0, 0.0, 0.0))}
        _, report = run_metered_round(
            vectors, threshold=4, plans=plans, phase_timeout=10.0
        )
        assert report.counter(
            "secagg_phase_timeouts_total", phase="advertise"
        ) == 1
        # A straggler is dropped like any other absentee: counted once,
        # under the phase that closed without it.
        assert report.counter(
            "secagg_clients_dropped_total", phase="advertise"
        ) == 1
        assert report.counter_sum("secagg_clients_dropped_total") == 1

    def test_aborted_round_counted_before_raise(self):
        vectors = make_vectors(6)
        plans = {u: ClientPlan(drop_phase=2) for u in (1, 2, 3, 4)}
        clock = SimulatedClock()
        registry = MetricsRegistry()
        secagg_round = AsyncSecAggRound(
            vectors=vectors,
            modulus=MODULUS,
            threshold=5,
            clock=clock,
            rng=np.random.default_rng(1),
            plans=plans,
            metrics=registry,
        )
        with pytest.raises(AggregationError):
            clock.run(secagg_round.run())
        report = MetricsReport(snapshot=registry.snapshot())
        assert report.counter("secagg_rounds_total", outcome="aborted") == 1
        assert report.counter("secagg_rounds_total", outcome="completed") == 0

    def test_version_rejection_counted_by_reason(self):
        vectors = make_vectors(6)
        outcome, report = run_metered_round(
            vectors, threshold=4, client_versions={1: 999}
        )
        assert 1 not in outcome.included
        assert report.counter(
            "secagg_negotiations_total", outcome="rejected"
        ) == 1
        assert report.counter(
            "secagg_negotiation_rejects_total", reason="version"
        ) == 1
        assert report.counter(
            "secagg_negotiations_total", outcome="accepted"
        ) == len(vectors) - 1

    def test_metering_never_perturbs_the_round(self):
        vectors = make_vectors(8)
        plans = {2: ClientPlan(drop_phase=1)}

        def run(metered):
            clock = SimulatedClock()
            secagg_round = AsyncSecAggRound(
                vectors=vectors,
                modulus=MODULUS,
                threshold=5,
                clock=clock,
                rng=np.random.default_rng(7),
                plans=plans,
                metrics=MetricsRegistry() if metered else None,
            )
            return clock.run(secagg_round.run())

        plain, metered = run(False), run(True)
        assert np.array_equal(plain.modular_sum, metered.modular_sum)
        assert plain.duration == metered.duration
        assert plain.included == metered.included


def run_metered_sharded(vectors, shards, backend="inline", seed=1):
    clock = SimulatedClock()
    registry = MetricsRegistry()
    sharded = HierarchicalSecAggRound(
        vectors=vectors,
        modulus=MODULUS,
        clock=clock,
        rng=np.random.default_rng(seed),
        topology=str(shards),
        threshold_fraction=0.6,
        backend=backend,
        metrics=registry,
    )
    outcome = sharded.execute()
    return outcome, MetricsReport(snapshot=registry.snapshot()), sharded


class TestShardedMetrics:
    def test_per_shard_labels_survive_the_merge(self):
        vectors = make_vectors(8)
        outcome, report, _ = run_metered_sharded(vectors, shards=2)
        for shard in ("0", "1"):
            assert report.counter(
                "secagg_rounds_total", outcome="completed", shard=shard
            ) == 1
        assert report.counter_sum("secagg_rounds_total") == 2

    def test_phase_latencies_aggregate_across_shards(self):
        vectors = make_vectors(8)
        _, report, _ = run_metered_sharded(vectors, shards=2)
        rows = report.phase_latency_rows()
        assert [row["phase"] for row in rows] == list(PHASE_ORDER)
        # Two shards -> two observations folded into each phase row.
        for phase in PHASE_ORDER:
            merged = report.snapshot.aggregate(
                "secagg_phase_sim_duration_seconds", phase=phase
            )
            assert merged.count == 2

    def test_wire_counters_reconcile_across_shards(self):
        vectors = make_vectors(8)
        outcome, report, _ = run_metered_sharded(vectors, shards=2)
        assert report.counter_sum(
            "secagg_wire_bytes_total"
        ) == outcome.wire.total_bytes
        assert report.counter_sum(
            "secagg_wire_messages_total"
        ) == outcome.wire.total_messages

    def test_dispatch_and_merge_wall_timing(self):
        vectors = make_vectors(8)
        _, report, _ = run_metered_sharded(vectors, shards=2)
        dispatch = report.snapshot.aggregate("secagg_shard_dispatch_seconds")
        merge = report.snapshot.aggregate("secagg_shard_merge_seconds")
        assert dispatch is not None and dispatch.count == 1
        assert merge is not None and merge.count == 1
        # The inline backend moves no bytes between processes.
        assert report.counter_sum("secagg_shard_transfer_bytes_total") == 0

    def test_process_backend_reports_transfer_bytes(self):
        vectors = make_vectors(8)
        backend = ProcessBackend(max_workers=2)
        outcome, report, sharded = run_metered_sharded(
            vectors, shards=2, backend=backend
        )
        transferred = report.counter(
            "secagg_shard_transfer_bytes_total", transport="pickle"
        )
        assert transferred > 0
        # Per-shard series crossed the process boundary intact.
        assert report.counter(
            "secagg_rounds_total", outcome="completed", shard="0"
        ) == 1
        assert report.counter_sum(
            "secagg_wire_bytes_total"
        ) == outcome.wire.total_bytes


ENGINE_CONFIG = dict(
    population_size=16,
    expected_cohort=8,
    rounds=2,
    modulus=2**16,
    gamma=16.0,
    epsilon=5.0,
    hidden=4,
    test_records=32,
    dataset="mnist",
    seed=11,
)


def run_engine(**overrides):
    config = SimulationConfig(**{**ENGINE_CONFIG, **overrides})
    engine = SimulationEngine(config, availability=BernoulliDropout(0.1))
    return engine, engine.run()


class TestEngineTelemetry:
    def test_report_attached_and_parseable(self):
        engine, result = run_engine()
        report = result.metrics
        assert isinstance(report, MetricsReport)
        assert report.counter_sum(
            "sim_rounds_total"
        ) == engine.config.rounds
        cohort = report.snapshot.aggregate("sim_cohort_size")
        assert cohort is not None
        assert cohort.count == engine.config.rounds
        gauge = report.counter("sim_cumulative_epsilon")
        if not math.isnan(result.epsilon):
            assert gauge == pytest.approx(result.epsilon)
        assert report.counter("sim_clock_seconds") > 0
        # The exposition text round-trips through the strict parser.
        parsed = parse_prometheus(report.to_prometheus())
        assert "sim_rounds_total" in parsed.family_names()
        assert "secagg_phase_sim_duration_seconds" in parsed.family_names()

    def test_telemetry_off_is_bit_identical(self):
        _, metered = run_engine()
        _, plain = run_engine(telemetry=False)
        assert plain.metrics is None
        assert plain.parameters_digest == metered.parameters_digest
        assert plain.epsilon == metered.epsilon

    def test_trace_ring_buffer_capped_via_config(self):
        engine, _ = run_engine(trace_max_events=5)
        assert len(engine.trace) <= 5
        assert engine.trace.dropped_events > 0
        assert len(engine.trace.events) <= 5

    def test_trace_max_events_validated(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(**ENGINE_CONFIG, trace_max_events=0)

    def test_dropped_events_gauge_exported(self):
        engine, result = run_engine(trace_max_events=5)
        assert result.metrics.counter(
            "sim_trace_dropped_events"
        ) == engine.trace.dropped_events
