"""Hierarchical aggregation trees: topology, privacy, rebalancing.

Two load-bearing invariants anchor this module:

* **Equivalence** — an N-level tree's composed sum is *bit-identical*
  to the flat modular sum over the same survivor set, for any topology,
  any dropout schedule, and either composer (a hypothesis property).
* **Privacy** — with the secagg composer, no unmasked intermediate
  shard sum reaches the parent round: the raw sum's bytes never appear
  in any datagram the composing server receives.

Plus the straggler-rebalancing contract: a leaf shard driven below its
Shamir threshold *before* the masking phase commits re-homes its
survivors onto sibling shards (capped, one pass) instead of dropping
them, and their contributions — masks re-derived in the new shard —
land exactly in the final sum.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AggregationError, ConfigurationError
from repro.secagg import (
    TreeTopology,
    compose,
    run_bonawitz,
    run_composition_round,
)
from repro.secagg.bonawitz import (
    ROUND_ADVERTISE,
    ROUND_MASKED_INPUT,
    ROUND_UNMASK,
)
from repro.secagg.tree import MIN_SHARD_SIZE, partition_members
from repro.simulation import (
    ClientPlan,
    HierarchicalSecAggRound,
    SimulatedClock,
    SimulationTrace,
    validate_threshold_fraction,
)
from repro.simulation.engine import SimulationConfig
from repro.telemetry import MetricsRegistry

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


def run_tree(vectors, topology, composer=None, plans=None, seed=1,
             threshold_fraction=0.6, metrics=None, trace=False,
             rebalance=False, max_shard_size=None):
    clock = SimulatedClock()
    trace_log = SimulationTrace(clock) if trace else None
    round_ = HierarchicalSecAggRound(
        vectors=vectors,
        modulus=MODULUS,
        clock=clock,
        rng=np.random.default_rng(seed),
        topology=topology,
        threshold_fraction=threshold_fraction,
        composer=composer,
        plans=plans,
        trace=trace_log,
        metrics=metrics,
        rebalance=rebalance,
        max_shard_size=max_shard_size,
    )
    outcome = round_.execute()
    return outcome, round_, trace_log


class TestTreeTopology:
    def test_parse_shapes(self):
        assert TreeTopology.parse("8").branching == (8,)
        assert TreeTopology.parse("4x4").branching == (4, 4)
        assert TreeTopology.parse("2,3,4").branching == (2, 3, 4)
        assert TreeTopology.parse(" 4X2 ").branching == (4, 2)

    def test_parse_passthrough_and_levels(self):
        topology = TreeTopology((4, 4))
        assert TreeTopology.parse(topology) is topology
        assert topology.levels == 2
        assert topology.describe() == "4x4"
        assert TreeTopology((8,)).levels == 1

    def test_parse_rejects_garbage(self):
        for bad in ("", "4x", "x4", "4xx4", "eight", "4x-2"):
            with pytest.raises(ConfigurationError):
                TreeTopology.parse(bad)

    def test_invalid_branching_rejected(self):
        with pytest.raises(ConfigurationError):
            TreeTopology(())
        with pytest.raises(ConfigurationError):
            TreeTopology((4, 0))
        with pytest.raises(ConfigurationError):
            TreeTopology.parse("0")

    def test_one_level_matches_flat_partition(self):
        """A (k,) tree's leaves are the flat round-robin partition:
        same groups, same order, leaf indices 0..k-1."""
        cohort = tuple(range(1, 23))
        root = TreeTopology((4,)).partition(cohort)
        leaves = root.leaves()
        assert [leaf.members for leaf in leaves] == partition_members(
            cohort, 4
        )
        assert [leaf.leaf_index for leaf in leaves] == [0, 1, 2, 3]

    def test_multi_level_partition_covers_cohort(self):
        cohort = tuple(range(1, 33))
        root = TreeTopology((2, 4)).partition(cohort)
        leaves = root.leaves()
        assert len(leaves) == 8
        flattened = sorted(u for leaf in leaves for u in leaf.members)
        assert flattened == sorted(cohort)
        assert [leaf.leaf_index for leaf in leaves] == list(range(8))
        assert all(len(leaf.members) >= MIN_SHARD_SIZE for leaf in leaves)
        # Interior nodes: the root plus its two region children.
        interior = root.interior()
        assert [node.level for node in interior] == [0, 1, 1]
        assert root.path == () and not root.is_leaf
        # Every leaf's path threads through its region.
        for leaf in leaves:
            assert len(leaf.path) == 2 and leaf.level == 2

    def test_small_cohort_degrades_gracefully(self):
        # 6 members cannot fill a 4x4 tree; every level caps its
        # fan-out so no shard drops below MIN_SHARD_SIZE.
        root = TreeTopology((4, 4)).partition(range(1, 7))
        leaves = root.leaves()
        assert sorted(u for leaf in leaves for u in leaf.members) == list(
            range(1, 7)
        )
        assert all(len(leaf.members) >= MIN_SHARD_SIZE for leaf in leaves)

    def test_partition_rejects_bad_cohorts(self):
        with pytest.raises(ConfigurationError):
            TreeTopology((2,)).partition(())
        with pytest.raises(ConfigurationError):
            partition_members((1, 1, 2), 2)
        with pytest.raises(ConfigurationError):
            partition_members((1, 2), 0)


class TestComposers:
    def test_composer_name_resolution(self):
        sums = [np.arange(DIMENSION, dtype=np.int64)] * 2
        expected = np.mod(np.arange(DIMENSION) * 2, MODULUS)
        for how in ("clear", "secagg"):
            total, _ = compose(
                sums, MODULUS, how, rng=np.random.default_rng(0)
            )
            assert np.array_equal(total, expected)
        # The default is the clear (legacy sharded-round) composition.
        assert compose(sums, MODULUS)[1] is None
        assert run_tree(make_vectors(8), "2")[1].composer_name == "clear"
        with pytest.raises(ConfigurationError, match="unknown composer"):
            compose(sums, MODULUS, "homomorphic")
        with pytest.raises(ConfigurationError, match="unknown composer"):
            run_tree(make_vectors(8), "2", composer="homomorphic")

    def test_clear_composer_counts_compositions(self):
        metrics = MetricsRegistry()
        sums = [np.arange(DIMENSION, dtype=np.int64)] * 3
        total, wire = compose(
            sums, MODULUS, "clear", level=1, metrics=metrics
        )
        assert np.array_equal(
            total, np.mod(np.arange(DIMENSION) * 3, MODULUS)
        )
        assert wire is None
        assert metrics.snapshot().value(
            "compose_clear_total", level="1"
        ) == 1.0

    def test_secagg_composer_single_child_passthrough(self):
        only = np.arange(DIMENSION, dtype=np.int64) + MODULUS
        total, wire = compose([only], MODULUS, "secagg")
        assert np.array_equal(total, np.mod(only, MODULUS))
        assert wire is None

    def test_secagg_composer_requires_rng(self):
        sums = [np.arange(DIMENSION, dtype=np.int64)] * 2
        with pytest.raises(ConfigurationError):
            compose(sums, MODULUS, "secagg", rng=None)
        with pytest.raises(ConfigurationError):
            compose([], MODULUS, "secagg")

    def test_secagg_composition_bit_identical_to_clear(self):
        rng = np.random.default_rng(5)
        sums = [
            rng.integers(0, MODULUS, size=DIMENSION, dtype=np.int64)
            for _ in range(4)
        ]
        clear, _ = compose(sums, MODULUS, "clear")
        masked, wire = compose(
            sums, MODULUS, "secagg", rng=np.random.default_rng(7)
        )
        assert np.array_equal(masked, clear)
        assert wire is not None and wire.total_bytes > 0


class TestVirtualClientPrivacy:
    """No unmasked intermediate sum is reachable from the parent round."""

    def test_parent_server_never_receives_raw_sums(self, monkeypatch):
        """Wire accounting: every datagram the composing server ingests
        is captured, and no child sum's raw bytes appear in any of
        them — the parent's inputs are masked frames only."""
        import repro.secagg.statemachine as statemachine

        received = []
        real_server = statemachine.ServerSession

        class RecordingServer(real_server):
            def receive(self, data, sender=None):
                received.append(bytes(data))
                return super().receive(data, sender=sender)

        monkeypatch.setattr(statemachine, "ServerSession", RecordingServer)
        rng = np.random.default_rng(11)
        child_sums = [
            rng.integers(0, MODULUS, size=DIMENSION, dtype=np.int64)
            for _ in range(3)
        ]
        total, wire = run_composition_round(
            child_sums, MODULUS, np.random.default_rng(13)
        )
        assert np.array_equal(
            total, np.mod(np.sum(child_sums, axis=0), MODULUS)
        )
        assert received and wire.total_bytes > 0
        blob = b"".join(received)
        for child in child_sums:
            assert child.tobytes() not in blob
            assert np.mod(child, MODULUS).astype(np.int64).tobytes() not in blob

    def test_composition_round_needs_two_children(self):
        with pytest.raises(ConfigurationError):
            run_composition_round(
                [np.zeros(DIMENSION, dtype=np.int64)],
                MODULUS,
                np.random.default_rng(0),
            )

    def test_composition_round_is_the_flat_protocol(self):
        """A composition round is ``run_bonawitz`` at the full-count
        threshold over the child sums, to the byte: the same released
        sum and the same messages and bytes per phase and direction.
        Several seeds, because public keys are variable-width: a round
        that drew its per-client seeds differently would differ in a
        byte on some seeds only."""
        for seed in range(8):
            rng = np.random.default_rng(17 + seed)
            child_sums = [
                rng.integers(0, MODULUS, size=DIMENSION, dtype=np.int64)
                for _ in range(5)
            ]
            total, wire = run_composition_round(
                child_sums, MODULUS, np.random.default_rng(19 + seed)
            )
            flat = run_bonawitz(
                np.stack(child_sums),
                MODULUS,
                threshold=len(child_sums),
                rng=np.random.default_rng(19 + seed),
            )
            assert flat.included == frozenset(range(1, len(child_sums) + 1))
            assert np.array_equal(total, flat.modular_sum)
            assert wire.phase_totals() == flat.wire.phase_totals()

    def test_secagg_tree_wire_includes_composition_traffic(self):
        vectors = make_vectors(16, seed=2)
        clear, _, _ = run_tree(vectors, "4", composer="clear", seed=3)
        masked, _, _ = run_tree(vectors, "4", composer="secagg", seed=3)
        assert np.array_equal(clear.modular_sum, masked.modular_sum)
        # The outer Bonawitz round moves real bytes the clear
        # composition never pays for.
        assert masked.wire.total_bytes > clear.wire.total_bytes


class TestHierarchyEquivalence:
    def test_all_shapes_digest_identical_when_all_online(self):
        vectors = make_vectors(16, seed=4)
        shapes = [
            run_tree(vectors, "4", composer="clear", seed=9)[0],
            run_tree(vectors, "4", composer="secagg", seed=9)[0],
            run_tree(vectors, "2x2", composer="secagg", seed=9)[0],
        ]
        expected = flat_sum(vectors, vectors)
        for outcome in shapes:
            assert outcome.included == frozenset(vectors)
            assert np.array_equal(outcome.modular_sum, expected)

    def test_deterministic_across_reruns(self):
        vectors = make_vectors(18, seed=6)
        first, _, _ = run_tree(vectors, "2x2", composer="secagg", seed=21)
        second, _, _ = run_tree(vectors, "2x2", composer="secagg", seed=21)
        assert np.array_equal(first.modular_sum, second.modular_sum)
        assert first.included == second.included

    def test_outcome_annotated_with_composer(self):
        vectors = make_vectors(8, seed=7)
        clear, round_clear, _ = run_tree(vectors, "2", seed=1)
        masked, round_masked, _ = run_tree(
            vectors, "2", composer="secagg", seed=1
        )
        assert clear.composer == "clear"
        assert round_clear.composer_name == "clear"
        assert masked.composer == "secagg"
        assert round_masked.composer_name == "secagg"

    @settings(max_examples=10, deadline=None)
    @given(
        data=st.data(),
        num_clients=st.integers(min_value=8, max_value=20),
        topology=st.sampled_from(["2", "4", "2x2", "2x3", "2x2x2"]),
        composer=st.sampled_from(["clear", "secagg"]),
    )
    def test_tree_sum_equals_flat_survivor_sum(
        self, data, num_clients, topology, composer
    ):
        """The invariant: whatever the tree shape, composer, and
        dropout schedule, the composed sum is bit-identical to the
        flat modular sum over exactly the included survivors."""
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
            outcome, _, _ = run_tree(
                vectors, topology, composer=composer, plans=plans, seed=5
            )
        except AggregationError:
            return  # every shard below threshold: a legal abort
        assert outcome.composer == composer
        assert outcome.included.isdisjoint(outcome.dropped)
        assert outcome.included | outcome.dropped == frozenset(vectors)
        assert np.array_equal(
            outcome.modular_sum, flat_sum(vectors, outcome.included)
        )


class TestRebalancing:
    """Cross-shard straggler rebalancing: survivors of a below-threshold
    shard re-home to siblings instead of dropping."""

    #: 12 members, 2 shards (round-robin: odds / evens), threshold
    #: ceil(0.8 * 6) = 5 — dropping 3 odds drives shard 0 below it.
    NUM = 12
    DROPPED = (1, 3, 5)
    SURVIVORS = (7, 9, 11)

    def plans(self, drop_phase=1):
        return {u: ClientPlan(drop_phase=drop_phase) for u in self.DROPPED}

    def test_without_rebalance_survivors_are_dropped(self):
        vectors = make_vectors(self.NUM, seed=8)
        outcome, _, _ = run_tree(
            vectors, "2", plans=self.plans(), threshold_fraction=0.8, seed=2
        )
        assert outcome.included == frozenset(range(2, 13, 2))
        assert set(self.SURVIVORS) <= outcome.dropped

    def test_survivors_rehomed_and_contributions_exact(self):
        """The acceptance regression: a shard driven below its Shamir
        threshold rebalances its pre-masking survivors to a sibling and
        the round completes with their contributions included — mask
        keys re-derived consistently in the new shard, so the sum is
        bit-exact against the flat oracle."""
        vectors = make_vectors(self.NUM, seed=8)
        metrics = MetricsRegistry()
        outcome, round_, trace = run_tree(
            vectors, "2", plans=self.plans(), threshold_fraction=0.8,
            seed=2, rebalance=True, metrics=metrics, trace=True,
        )
        expected_included = frozenset(range(2, 13, 2)) | set(self.SURVIVORS)
        assert outcome.included == expected_included
        assert np.array_equal(
            outcome.modular_sum, flat_sum(vectors, expected_included)
        )
        assert metrics.snapshot().value(
            "tree_rebalance_total", outcome="moved"
        ) == len(self.SURVIVORS)
        kinds = [event.kind for event in trace.events]
        assert "shard-rebalanced" in kinds
        assert "shard-aborted" in kinds
        # The re-homed shard re-ran as attempt 1.
        attempts = {
            report.shard_index: report.attempt
            for report in round_.last_reports
        }
        assert attempts[1] == 1

    def test_leaf_taken_under_threshold_by_evictions_is_rehomed(
        self, monkeypatch
    ):
        """Clients 1 and 3 upload a share-keys datagram one envelope
        short.  The leaf's driver evicts both and the phase closes
        under threshold, so the abort carries its phase and survivors
        like any dropout-driven one and the honest four are re-homed —
        a refusal raised out of the loop instead (the pre-driver
        simulator) left ``abort_phase`` unset and stranded them."""
        import repro.simulation.rounds as rounds_module
        from repro.secagg.statemachine import ClientSession
        from repro.secagg.wire import (
            SealedUpload,
            decode_message,
            encode_message,
        )

        class ShortSharer(ClientSession):
            def handle(self, data):
                (upload,) = super().handle(data)
                header, message = decode_message(upload)
                if self.index in (1, 3) and isinstance(message, SealedUpload):
                    short = SealedUpload(self.index, message.ciphertexts[:-1])
                    upload = encode_message(short, header)
                return [upload]

        monkeypatch.setattr(rounds_module, "ClientSession", ShortSharer)
        vectors = make_vectors(self.NUM, seed=8)
        outcome, round_, trace = run_tree(
            vectors, "2", threshold_fraction=0.8, seed=2, rebalance=True,
            trace=True,
        )
        expected_included = frozenset(range(2, 13, 2)) | {5, 7, 9, 11}
        assert outcome.included == expected_included
        assert np.array_equal(
            outcome.modular_sum, flat_sum(vectors, expected_included)
        )
        evicted = {
            event.details["client"]: event.details["reason"]
            for event in trace.of_kind("client-evicted")
        }
        assert evicted == {1: "protocol", 3: "protocol"}
        assert trace.count("shard-rebalanced") == 1

    def test_rebalance_with_secagg_composer_stays_bit_identical(self):
        vectors = make_vectors(self.NUM, seed=8)
        clear, _, _ = run_tree(
            vectors, "2", plans=self.plans(), threshold_fraction=0.8,
            seed=2, rebalance=True,
        )
        masked, _, _ = run_tree(
            vectors, "2", composer="secagg", plans=self.plans(),
            threshold_fraction=0.8, seed=2, rebalance=True,
        )
        assert masked.included == clear.included
        assert np.array_equal(masked.modular_sum, clear.modular_sum)

    def test_post_masking_abort_is_not_rebalanced(self):
        """Eligibility: once the masking phase has committed
        (abort_phase >= ROUND_MASKED_INPUT) survivors stay put — their
        masked inputs are already bound to the old shard's key set."""
        vectors = make_vectors(self.NUM, seed=8)
        metrics = MetricsRegistry()
        outcome, _, _ = run_tree(
            vectors, "2", plans=self.plans(drop_phase=ROUND_MASKED_INPUT),
            threshold_fraction=0.8, seed=2, rebalance=True, metrics=metrics,
        )
        assert outcome.included == frozenset(range(2, 13, 2))
        assert metrics.snapshot().value(
            "tree_rebalance_total", outcome="moved"
        ) is None

    def test_target_overflow_is_counted_and_capped(self):
        """A size-capped target absorbs what fits; the rest overflow
        (counted, traced) rather than blowing past max_shard_size."""
        vectors = make_vectors(self.NUM, seed=8)
        metrics = MetricsRegistry()
        outcome, _, trace = run_tree(
            vectors, "2", plans=self.plans(), threshold_fraction=0.8,
            seed=2, rebalance=True, metrics=metrics, trace=True,
            max_shard_size=7,
        )
        # Target shard (6 evens) takes exactly one survivor.
        assert len(outcome.included) == 7
        moved = outcome.included - frozenset(range(2, 13, 2))
        assert len(moved) == 1 and moved <= set(self.SURVIVORS)
        assert np.array_equal(
            outcome.modular_sum, flat_sum(vectors, outcome.included)
        )
        snapshot = metrics.snapshot()
        assert snapshot.value("tree_rebalance_total", outcome="moved") == 1
        assert snapshot.value("tree_rebalance_total", outcome="overflow") == 2
        rebalanced = [
            event for event in trace.events
            if event.kind == "shard-rebalanced"
        ]
        assert len(rebalanced[0].details["overflow"]) == 2

    def test_donor_collapsed_to_min_size_still_rehomes(self):
        """Edge: the donor shard collapses to MIN_SHARD_SIZE survivors —
        both are re-homed and contribute exactly."""
        vectors = make_vectors(self.NUM, seed=8)
        dropped = (1, 3, 5, 7)  # shard 0 keeps just 9 and 11
        plans = {u: ClientPlan(drop_phase=1) for u in dropped}
        outcome, _, _ = run_tree(
            vectors, "2", plans=plans, threshold_fraction=0.8,
            seed=2, rebalance=True,
        )
        expected = frozenset(range(2, 13, 2)) | {9, 11}
        assert outcome.included == expected
        assert np.array_equal(
            outcome.modular_sum, flat_sum(vectors, expected)
        )

    def test_all_shards_below_threshold_raises(self):
        """With no viable sibling target the survivors are stranded and
        the round aborts exactly like the legacy path."""
        vectors = make_vectors(self.NUM, seed=8)
        plans = {
            u: ClientPlan(drop_phase=1) for u in (1, 3, 5, 2, 4, 6)
        }
        metrics = MetricsRegistry()
        with pytest.raises(AggregationError, match="all 2 shards aborted"):
            run_tree(
                vectors, "2", plans=plans, threshold_fraction=0.8,
                seed=2, rebalance=True, metrics=metrics,
            )
        assert metrics.snapshot().value(
            "tree_rebalance_total", outcome="stranded"
        ) == 6

    def test_rebalance_is_sibling_scoped(self):
        """Donors only shed to leaves under the same parent: with a
        2x2 tree and one whole region below threshold, the other
        region's healthy shards are not valid targets."""
        vectors = make_vectors(16, seed=12)
        root = TreeTopology((2, 2)).partition(vectors)
        region0 = root.children[0]
        # Drop enough members of each leaf in region 0 to abort both.
        plans = {}
        for leaf in region0.leaves():
            for u in leaf.members[:3]:
                plans[u] = ClientPlan(drop_phase=1)
        metrics = MetricsRegistry()
        outcome, _, _ = run_tree(
            vectors, "2x2", plans=plans, threshold_fraction=0.9,
            seed=2, rebalance=True, metrics=metrics,
        )
        region0_members = set(region0.members)
        assert outcome.included.isdisjoint(region0_members)
        assert np.array_equal(
            outcome.modular_sum, flat_sum(vectors, outcome.included)
        )
        snapshot = metrics.snapshot()
        assert snapshot.value("tree_rebalance_total", outcome="moved") is None
        assert snapshot.value(
            "tree_rebalance_total", outcome="stranded"
        ) == 2  # one pre-masking survivor set per aborted leaf

    def test_max_shard_size_validation(self):
        vectors = make_vectors(8, seed=1)
        with pytest.raises(ConfigurationError):
            HierarchicalSecAggRound(
                vectors=vectors,
                modulus=MODULUS,
                clock=SimulatedClock(),
                rng=np.random.default_rng(0),
                topology="2",
                max_shard_size=1,
            )


class TestTelemetryAndConfig:
    def test_per_level_labels_on_phase_histograms(self):
        vectors = make_vectors(16, seed=4)
        metrics = MetricsRegistry()
        run_tree(vectors, "2x2", composer="secagg", seed=9, metrics=metrics)
        snapshot = metrics.snapshot()
        levels = {
            dict(series.labels).get("level")
            for series in snapshot.series
            if series.name == "secagg_phase_wall_duration_seconds"
        }
        assert {"0", "1"} <= levels
        wall_levels = {
            dict(series.labels)["level"]
            for series in snapshot.series
            if series.name == "tree_level_wall_seconds"
        }
        assert wall_levels == {"0", "1"}

    def test_clear_compose_counter_per_level(self):
        vectors = make_vectors(16, seed=4)
        metrics = MetricsRegistry()
        run_tree(vectors, "2x2", composer="clear", seed=9, metrics=metrics)
        snapshot = metrics.snapshot()
        assert snapshot.value("compose_clear_total", level="0") == 1
        assert snapshot.value("compose_clear_total", level="1") == 2

    def test_trace_records_tree_composition(self):
        vectors = make_vectors(16, seed=4)
        _, _, trace = run_tree(
            vectors, "2x2", composer="secagg", seed=9, trace=True
        )
        composes = [
            event for event in trace.events if event.kind == "tree-compose"
        ]
        assert [event.details["level"] for event in composes] == [1, 1, 0]
        assert all(
            event.details["composer"] == "secagg" for event in composes
        )
        complete = [
            event
            for event in trace.events
            if event.kind == "sharded-round-complete"
        ]
        assert complete[0].details["topology"] == "2x2"
        assert complete[0].details["composer"] == "secagg"

    def test_validate_threshold_fraction(self):
        assert validate_threshold_fraction(0.6) == 0.6
        assert validate_threshold_fraction(1.0) == 1.0
        for bad in (0.0, -0.1, 1.01):
            with pytest.raises(
                ConfigurationError, match="threshold_fraction"
            ):
                validate_threshold_fraction(bad)

    def test_round_rejects_bad_threshold_fraction(self):
        with pytest.raises(ConfigurationError, match="threshold_fraction"):
            HierarchicalSecAggRound(
                vectors=make_vectors(8, seed=1),
                modulus=MODULUS,
                clock=SimulatedClock(),
                rng=np.random.default_rng(0),
                topology="2",
                threshold_fraction=0.0,
            )

    def test_sharded_round_is_one_level_tree(self):
        vectors = make_vectors(12, seed=3)
        clock = SimulatedClock()
        legacy = HierarchicalSecAggRound(
            vectors=vectors,
            modulus=MODULUS,
            clock=clock,
            rng=np.random.default_rng(17),
            topology="3",
        )
        assert isinstance(legacy, HierarchicalSecAggRound)
        assert legacy.topology.branching == (3,)
        outcome = legacy.execute()
        tree, _, _ = run_tree(vectors, "3", seed=17)
        assert np.array_equal(outcome.modular_sum, tree.modular_sum)
        with pytest.raises(ConfigurationError):
            HierarchicalSecAggRound(
                vectors=vectors,
                modulus=MODULUS,
                clock=SimulatedClock(),
                rng=np.random.default_rng(0),
                topology="0",
            )

    def test_simulation_config_tree_knobs(self):
        config = SimulationConfig(tree="4x2", compose="secagg")
        assert config.aggregation_topology().branching == (4, 2)
        assert SimulationConfig().aggregation_topology() is None
        sharded = SimulationConfig(tree="4")
        assert sharded.aggregation_topology().branching == (4,)
        with pytest.raises(ConfigurationError, match="unknown composer"):
            SimulationConfig(compose="homomorphic")
        with pytest.raises(ConfigurationError):
            SimulationConfig(tree="4x")
