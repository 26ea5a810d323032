"""Unit tests for the telemetry layer: registry, exporters, spans.

The merge-safety properties (order-independence, count/sum
preservation) carry the whole observability design — shard snapshots
relabeled and absorbed across process boundaries must equal in-process
metering — so they get property-based coverage alongside the pinned
exposition format and the strict parser.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.simulation.clock import SimulatedClock
from repro.telemetry import (
    COHORT_SIZE_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    MetricsSnapshot,
    merge_snapshots,
    parse_prometheus,
    time_phase,
    to_json_lines,
    to_prometheus,
    trace_to_json_lines,
)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "Requests.")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0

    def test_counter_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_gauge_sets_and_moves(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.dec(3)
        gauge.inc(1)
        assert gauge.value == 8.0

    def test_histogram_quantiles_interpolate(self):
        histogram = MetricsRegistry().histogram(
            "latency_seconds", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        child = histogram.labels()
        assert child.count == 4
        assert child.sum == pytest.approx(6.05)
        # p50 lands inside the (0.1, 1.0] bucket.
        assert 0.1 < child.quantile(0.5) <= 1.0

    def test_labels_are_memoised_children(self):
        family = MetricsRegistry().counter("by_phase_total")
        first = family.labels(phase="advertise")
        second = family.labels(phase="advertise")
        other = family.labels(phase="unmask")
        assert first is second and first is not other

    def test_label_name_le_is_reserved(self):
        family = MetricsRegistry().histogram("h_seconds")
        with pytest.raises(ConfigurationError):
            family.labels(le="0.5")

    def test_family_kind_conflicts_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing_total")
        with pytest.raises(ConfigurationError):
            registry.gauge("thing_total")

    def test_default_buckets_are_log_scale_and_fixed(self):
        assert len(DEFAULT_LATENCY_BUCKETS) == 21
        ratios = {
            round(b / a, 6)
            for a, b in zip(DEFAULT_LATENCY_BUCKETS, DEFAULT_LATENCY_BUCKETS[1:])
        }
        assert ratios == {2.0}
        assert COHORT_SIZE_BUCKETS[0] == 1.0


class TestSnapshots:
    def _registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("messages_total").labels(direction="up").inc(3)
        registry.gauge("epsilon").set(1.5)
        hist = registry.histogram("latency_seconds")
        hist.observe(0.002)
        hist.observe(0.004)
        return registry

    def test_merge_adds_counters_and_histograms(self):
        snapshot = self._registry().snapshot()
        doubled = snapshot.merge(snapshot)
        assert doubled.value("messages_total", direction="up") == 6.0
        series = doubled.get("latency_seconds")
        assert series.count == 4 and series.sum == pytest.approx(0.012)

    def test_merge_gauges_right_biased(self):
        a = MetricsRegistry()
        a.gauge("epsilon").set(1.0)
        b = MetricsRegistry()
        b.gauge("epsilon").set(2.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged.value("epsilon") == 2.0

    def test_with_labels_existing_labels_win(self):
        snapshot = self._registry().snapshot().with_labels(
            shard="3", direction="down"
        )
        # The unlabeled series gain both labels ...
        assert snapshot.value("epsilon", shard="3", direction="down") == 1.5
        # ... but a series that already had `direction` keeps its own.
        assert snapshot.value(
            "messages_total", direction="up", shard="3"
        ) == 3.0

    def test_snapshot_pickles(self):
        snapshot = self._registry().snapshot()
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone == snapshot

    def test_absorb_folds_relabeled_shard_snapshot(self):
        parent = self._registry()
        shard = MetricsRegistry()
        shard.counter("messages_total").labels(direction="up").inc(7)
        parent.absorb(shard.snapshot().with_labels(shard="0"))
        snapshot = parent.snapshot()
        assert snapshot.value("messages_total", direction="up") == 3.0
        assert snapshot.value(
            "messages_total", direction="up", shard="0"
        ) == 7.0
        assert snapshot.sum_values("messages_total") == 10.0

    def test_aggregate_merges_label_subsets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("phase_seconds")
        hist.labels(phase="advertise", shard="0").observe(0.002)
        hist.labels(phase="advertise", shard="1").observe(0.002)
        hist.labels(phase="unmask", shard="0").observe(0.002)
        merged = registry.snapshot().aggregate(
            "phase_seconds", phase="advertise"
        )
        assert merged.count == 2
        assert registry.snapshot().aggregate("phase_seconds", phase="x") is None


# Observations drawn over several bucket orders of magnitude, split
# into arbitrary groups: merging the groups' snapshots in any order
# must equal observing everything into one histogram.
_OBSERVATIONS = st.lists(
    st.floats(min_value=1e-5, max_value=100.0, allow_nan=False),
    min_size=0,
    max_size=40,
)


class TestHistogramMergeProperties:
    @given(values=_OBSERVATIONS, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_merge_is_order_independent_and_preserving(self, values, data):
        groups: list[list[float]] = [[]]
        for value in values:
            index = data.draw(
                st.integers(min_value=0, max_value=len(groups)),
                label="group",
            )
            if index == len(groups):
                groups.append([])
            groups[min(index, len(groups) - 1)].append(value)

        def snapshot_of(observations: list[float]) -> MetricsSnapshot:
            registry = MetricsRegistry()
            hist = registry.histogram("h_seconds")
            for observation in observations:
                hist.observe(observation)
            return registry.snapshot()

        direct = snapshot_of(values).get("h_seconds")
        permutation = data.draw(
            st.permutations(list(range(len(groups)))), label="order"
        )
        merged = merge_snapshots(
            [snapshot_of(groups[i]) for i in permutation]
        ).get("h_seconds")
        if not values:
            assert merged is None or merged.count == 0
            return
        assert merged.count == direct.count == len(values)
        assert merged.sum == pytest.approx(direct.sum)
        assert merged.buckets == direct.buckets


class TestExposition:
    def test_format_is_pinned(self):
        registry = MetricsRegistry()
        registry.counter("msgs_total", "Messages.").labels(dir="up").inc(3)
        registry.gauge("eps", "Budget.").set(1.5)
        registry.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0)
                           ).observe(0.5)
        assert to_prometheus(registry.snapshot()) == (
            "# HELP eps Budget.\n"
            "# TYPE eps gauge\n"
            "eps 1.5\n"
            "# HELP lat_seconds Latency.\n"
            "# TYPE lat_seconds histogram\n"
            'lat_seconds_bucket{le="0.1"} 0\n'
            'lat_seconds_bucket{le="1"} 1\n'
            'lat_seconds_bucket{le="+Inf"} 1\n'
            "lat_seconds_sum 0.5\n"
            "lat_seconds_count 1\n"
            "# HELP msgs_total Messages.\n"
            "# TYPE msgs_total counter\n"
            'msgs_total{dir="up"} 3\n'
        )

    def test_label_values_escape_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("odd_total").labels(
            detail='quote " slash \\ newline \n done'
        ).inc()
        text = to_prometheus(registry.snapshot())
        parsed = parse_prometheus(text)
        assert parsed.value(
            "odd_total", detail='quote " slash \\ newline \n done'
        ) == 1.0

    def test_parse_round_trips_every_series(self):
        registry = MetricsRegistry()
        hist = registry.histogram("phase_seconds")
        hist.labels(phase="advertise").observe(0.01)
        hist.labels(phase="unmask").observe(0.5)
        registry.counter("rounds_total").labels(outcome="completed").inc(2)
        snapshot = registry.snapshot()
        parsed = parse_prometheus(to_prometheus(snapshot))
        assert parsed.types == {
            "phase_seconds": "histogram",
            "rounds_total": "counter",
        }
        assert parsed.value("rounds_total", outcome="completed") == 2.0
        assert parsed.value(
            "phase_seconds_count", phase="advertise"
        ) == 1.0

    @pytest.mark.parametrize(
        "text",
        [
            "what even is this line\n",
            # Sample before its TYPE declaration.
            "rounds_total 1\n",
            # Duplicate series.
            "# TYPE r_total counter\nr_total 1\nr_total 2\n",
            # Histogram without a +Inf bucket.
            "# TYPE h histogram\n"
            'h_bucket{le="1.0"} 1\nh_sum 0.5\nh_count 1\n',
            # Non-monotone cumulative buckets.
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 2\nh_bucket{le="1.0"} 1\n'
            'h_bucket{le="+Inf"} 2\nh_sum 0.3\nh_count 2\n',
            # +Inf bucket disagreeing with _count.
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 1\nh_sum 0.3\nh_count 2\n',
        ],
    )
    def test_parser_rejects_malformed_exposition(self, text):
        with pytest.raises(ValueError):
            parse_prometheus(text)

    def test_json_lines_exports(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        lines = to_json_lines(registry.snapshot()).splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["c_total"]

    def test_trace_events_to_json_lines(self):
        import json

        clock = SimulatedClock()
        from repro.simulation.events import SimulationTrace

        trace = SimulationTrace(clock)
        trace.record("phase-timeout", missing={3, 1}, phase="unmask")
        (line,) = trace_to_json_lines(trace.events)
        decoded = json.loads(line)
        assert decoded["kind"] == "phase-timeout"
        assert decoded["details"]["missing"] == [1, 3]  # sets sort


class TestSpans:
    def test_time_phase_observes_both_clocks(self):
        clock = SimulatedClock()
        registry = MetricsRegistry()
        sim = registry.histogram("sim_seconds")
        wall = registry.histogram("wall_seconds")
        with time_phase(
            "advertise", clock=clock, sim_histogram=sim, wall_histogram=wall
        ) as span:
            clock.advance_to(2.5)
        assert span.sim_duration == pytest.approx(2.5)
        assert span.wall_duration >= 0.0
        snapshot = registry.snapshot()
        assert snapshot.get("sim_seconds").count == 1
        assert snapshot.get("sim_seconds").sum == pytest.approx(2.5)
        assert snapshot.get("wall_seconds").count == 1

    def test_time_phase_without_clock_skips_sim_histogram(self):
        registry = MetricsRegistry()
        sim = registry.histogram("sim_seconds")
        with time_phase("merge", sim_histogram=sim) as span:
            pass
        assert span.sim_duration is None
        assert registry.snapshot().get("sim_seconds") is None

    def test_spans_observe_on_exception(self):
        registry = MetricsRegistry()
        wall = registry.histogram("wall_seconds")
        with pytest.raises(RuntimeError):
            with time_phase("merge", wall_histogram=wall):
                raise RuntimeError("boom")
        assert registry.snapshot().get("wall_seconds").count == 1
