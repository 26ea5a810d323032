"""Hierarchical secure aggregation: N-level trees of SecAgg rounds.

:class:`HierarchicalSecAggRound` generalises the flat sharded round to
an arbitrary region→…→global aggregation tree described by a
:class:`~repro.secagg.tree.TreeTopology`.  Leaf shards run independent
dropout-tolerant :class:`~repro.simulation.rounds.AsyncSecAggRound`
sub-rounds on an :class:`~repro.simulation.sharding.ExecutionBackend`
exactly as before; every *interior* node then combines its children's
sums through :func:`repro.secagg.compose.compose`:

* ``"clear"`` — the legacy outer modular addition.  Cheap, but the
  composing node sees each child's intermediate sum in plaintext.
* ``"secagg"`` — an outer Bonawitz round
  (:func:`~repro.secagg.tree.run_composition_round`) in which each
  child coordinator participates as a virtual client whose private
  input is its subtree's sum.  The composing node only ever receives
  masked frames, so no intermediate aggregate is exposed anywhere in
  the tree — and because masks cancel over the complete virtual-client
  set, the result is **bit-identical** to the clear composition.

Cross-shard straggler rebalancing (``rebalance=True``) closes the
remaining availability gap: a leaf shard whose survivor count falls
below its Shamir threshold *before the masking phase commits* no
longer aborts and drops its survivors — they are re-homed round-robin
onto the smallest sibling shards (same parent node, capped at
``max_shard_size``) and those shards re-run as attempt 1 with a
deterministic extended RNG spawn key.  Rebalancing changes which
members contribute, so it is opt-in; the default keeps the legacy
flat and 2-level-clear paths bit-identical to their pinned digests.

Determinism contract (unchanged from the flat round): one 63-bit
entropy draw seeds every leaf's spawn-keyed stream; when the composer
is cryptographic a *second* draw seeds the per-node composition
streams (``spawn_key=(level, *path)``), so the clear path costs the
round RNG exactly as many draws as before.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections.abc import Mapping, Sequence

import numpy as np

from repro.errors import AggregationError, ConfigurationError
from repro.secagg.bonawitz import ROUND_MASKED_INPUT
from repro.secagg.compose import COMPOSERS, compose
from repro.secagg.tree import MIN_SHARD_SIZE, TreeNode, TreeTopology
from repro.secagg.wire import WireStats
from repro.simulation.clock import SimulatedClock
from repro.simulation.events import SimulationTrace
from repro.simulation.population import ClientPlan
from repro.simulation.rounds import RoundOutcome
from repro.simulation.sharding import (
    ExecutionBackend,
    ProcessBackend,
    ShardReport,
    ShardTask,
    get_execution_backend,
    shamir_threshold,
    validate_threshold_fraction,
)
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import time_phase

__all__ = ["HierarchicalSecAggRound"]


@dataclasses.dataclass
class _NodeResult:
    """One subtree's composition result, bubbling toward the root.

    ``modular_sum is None`` marks an aborted subtree (every leaf under
    it failed); its members count as dropped and the sibling subtrees
    still compose.
    """

    modular_sum: np.ndarray | None
    included: frozenset[int]
    wire: list[WireStats]
    error: str | None = None


class HierarchicalSecAggRound:
    """One cohort round as an N-level tree of SecAgg (sub-)rounds.

    Drop-in sibling of :class:`~repro.simulation.rounds.AsyncSecAggRound`
    producing the same :class:`~repro.simulation.rounds.RoundOutcome`,
    but synchronous from the caller's view: each leaf shard runs to
    completion on its own private clock (possibly in another process),
    the parent clock is advanced by the slowest shard, and interior
    nodes compose their children's sums bottom-up.

    Args:
        vectors: Private input per cohort member (1-based index ->
            length-``d`` integer vector over ``Z_m``).
        modulus: Aggregation modulus ``m``.
        clock: The parent simulated clock; advanced (never run) by
            :meth:`execute`.
        rng: Round-scoped randomness; a single 63-bit entropy draw
            seeds every leaf's spawn-keyed stream (plus one more for
            the composition streams when the composer is
            cryptographic).
        topology: Tree shape (or a parseable string like ``"4x4"``);
            ``TreeTopology((k,))`` is the legacy flat ``k``-shard case.
        threshold_fraction: Per-shard Shamir threshold as a fraction of
            the shard's size (``max(2, ceil(fraction * len(shard)))``).
        composer: How interior nodes combine child sums — ``"clear"``
            (legacy outer modular addition, intermediate sums visible;
            the default) or ``"secagg"`` (outer Bonawitz round over
            virtual clients, intermediate sums masked).
        plans: Behaviour plan per cohort member.
        phase_timeout: Per-phase server deadline (simulated seconds).
        backend: ``"inline"``, ``"process"``, or an
            :class:`ExecutionBackend` instance.  A *name* builds a
            backend owned (and closed) by this round; an *instance*
            stays caller-owned for reuse across rounds and is never
            closed here.
        trace: Optional parent event log; shard traces are merged into
            it, each event annotated with its shard index.
        metrics: Optional :class:`~repro.telemetry.MetricsRegistry`.
            Leaf sub-rounds meter into private registries absorbed
            under a ``shard="<index>"`` label (unchanged from the flat
            round); composition rounds are absorbed under a
            ``level="<depth>"`` label, so the existing phase
            histograms gain per-level series.  The round additionally
            observes ``tree_level_wall_seconds`` per composed level
            and counts ``tree_rebalance_total`` by outcome.
        rebalance: Enable cross-shard straggler rebalancing (see
            module docstring).  Off by default — re-homing survivors
            changes which members contribute, so the legacy digests
            only pin the default.
        max_shard_size: Rebalancing size cap per leaf shard; defaults
            to twice the largest initial shard.
    """

    def __init__(
        self,
        vectors: Mapping[int, np.ndarray],
        modulus: int,
        clock: SimulatedClock,
        rng: np.random.Generator,
        topology: TreeTopology | str,
        threshold_fraction: float = 0.6,
        composer: str | None = None,
        plans: Mapping[int, ClientPlan] | None = None,
        phase_timeout: float = 60.0,
        backend: ExecutionBackend | str | None = None,
        trace: SimulationTrace | None = None,
        metrics: MetricsRegistry | None = None,
        rebalance: bool = False,
        max_shard_size: int | None = None,
    ) -> None:
        if not vectors:
            raise ConfigurationError("cohort must not be empty")
        validate_threshold_fraction(threshold_fraction)
        if len(vectors) < MIN_SHARD_SIZE:
            raise ConfigurationError(
                f"sharded aggregation needs a cohort of >= {MIN_SHARD_SIZE}, "
                f"got {len(vectors)}"
            )
        self._vectors = {
            u: np.asarray(vectors[u], dtype=np.int64) for u in sorted(vectors)
        }
        self._modulus = modulus
        self._clock = clock
        self._threshold_fraction = threshold_fraction
        self._plans = dict(plans or {})
        self._phase_timeout = phase_timeout
        # A backend built here from a name is owned here and closed
        # after each execute(); a passed-in instance stays caller-owned
        # (the engine reuses one pool across every round of a run).
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self._backend = get_execution_backend(backend)
        self._trace = trace
        self._topology = TreeTopology.parse(topology)
        self._composer = composer if composer is not None else "clear"
        if self._composer not in COMPOSERS:
            raise ConfigurationError(
                f"unknown composer {composer!r}; expected one of "
                f"{sorted(COMPOSERS)}"
            )
        self._root = self._topology.partition(self._vectors)
        self._leaves = self._root.leaves()
        self._rebalance = rebalance
        if max_shard_size is not None and max_shard_size < MIN_SHARD_SIZE:
            raise ConfigurationError(
                f"max_shard_size must be >= {MIN_SHARD_SIZE}, "
                f"got {max_shard_size}"
            )
        self._max_shard_size = (
            max_shard_size
            if max_shard_size is not None
            else 2 * max(len(leaf.members) for leaf in self._leaves)
        )
        # One entropy draw *before* dispatch keeps the per-shard streams
        # identical under every backend (and costs the round RNG exactly
        # one draw regardless of tree shape).  The composition streams
        # draw a second seed only when the composer actually needs
        # randomness, so the clear path's RNG trajectory — and with it
        # every pinned digest — is unchanged.
        self._entropy = int(rng.integers(0, 2**63))
        self._compose_entropy = (
            int(rng.integers(0, 2**63))
            if self._composer == "secagg"
            else None
        )
        self.last_reports: tuple[ShardReport, ...] = ()
        self._metrics = metrics
        if metrics is not None:
            self._m_dispatch = metrics.histogram(
                "secagg_shard_dispatch_seconds",
                "Wall seconds the backend spent running a round's "
                "shards, by backend.",
            )
            self._m_merge = metrics.histogram(
                "secagg_shard_merge_seconds",
                "Wall seconds spent absorbing shard reports (metrics "
                "and traces) back into the parent round.",
            )
            self._m_transfer = metrics.counter(
                "secagg_shard_transfer_bytes_total",
                "Vector payload bytes that crossed the worker "
                "boundary (inside the task and report pickles).",
            )
            self._m_level_wall = metrics.histogram(
                "tree_level_wall_seconds",
                "Wall seconds composing each aggregation-tree level, "
                "by level (0 = root).",
            )
            self._m_rebalance = metrics.counter(
                "tree_rebalance_total",
                "Straggler-rebalancing member moves, by outcome "
                "(moved / overflow / stranded).",
            )
        else:
            self._m_dispatch = self._m_merge = self._m_transfer = None
            self._m_level_wall = self._m_rebalance = None

    @property
    def num_shards(self) -> int:
        """Effective leaf-shard count after the partition's size cap."""
        return len(self._leaves)

    @property
    def topology(self) -> TreeTopology:
        """The tree shape this round aggregates over."""
        return self._topology

    @property
    def composer_name(self) -> str:
        """Name of the composer interior nodes run (clear / secagg)."""
        return self._composer

    def _shard_threshold(self, members: Sequence[int]) -> int:
        return shamir_threshold(self._threshold_fraction, len(members))

    def _build_task(
        self,
        leaf_index: int,
        members: Sequence[int],
        start_time: float,
        attempt: int = 0,
    ) -> ShardTask:
        return ShardTask(
            shard_index=leaf_index,
            vectors={u: self._vectors[u] for u in members},
            modulus=self._modulus,
            threshold=self._shard_threshold(members),
            start_time=start_time,
            entropy=self._entropy,
            plans={u: self._plans[u] for u in members if u in self._plans},
            phase_timeout=self._phase_timeout,
            collect_metrics=self._metrics is not None,
            attempt=attempt,
        )

    def _wall_span(self, name: str, instrument, **labels):
        """A wall-clock-only span, or a no-op without metrics."""
        if instrument is None:
            return contextlib.nullcontext()
        if labels:
            instrument = instrument.labels(**labels)
        return time_phase(name, wall_histogram=instrument)

    def _record(self, kind: str, **details) -> None:
        if self._trace is not None:
            self._trace.record(kind, **details)

    def _count_rebalance(self, outcome: str, members: int) -> None:
        if self._m_rebalance is not None and members:
            self._m_rebalance.labels(outcome=outcome).inc(members)

    def _merge_traces(self, reports: Sequence[ShardReport]) -> None:
        if self._trace is None:
            return
        annotated = [
            dataclasses.replace(
                event, details={**event.details, "shard": report.shard_index}
            )
            for report in reports
            for event in report.events
        ]
        # Stable sort: global time order, shard order breaking ties —
        # deterministic under both backends.
        annotated.sort(key=lambda event: event.time)
        self._trace.merge(annotated)

    def _dispatch(self, tasks: Sequence[ShardTask]) -> list[ShardReport]:
        with self._wall_span(
            "shard-dispatch", self._m_dispatch, backend=self._backend.name
        ):
            return self._backend.run_shards(tasks)

    # -- straggler rebalancing -------------------------------------------

    def _rebalance_pass(
        self, reports: dict[int, ShardReport]
    ) -> tuple[dict[int, ShardReport], list[ShardTask]]:
        """Re-home pre-masking survivors of below-threshold shards.

        Donors are leaf shards that aborted before the masking phase
        committed (``abort_phase < ROUND_MASKED_INPUT``) with a
        non-empty survivor set; targets are *sibling* leaves (same
        parent node) that completed attempt 0.  Survivors go
        round-robin onto the smallest target under the size cap;
        affected targets re-run as attempt 1.  One pass only — a retry
        that itself aborts drops its members like any aborted shard.
        """
        members_by_leaf = {
            leaf.leaf_index: list(leaf.members) for leaf in self._leaves
        }
        retry_members: dict[int, list[int]] = {}
        groups: dict[tuple[int, ...], list[TreeNode]] = {}
        for leaf in self._leaves:
            groups.setdefault(leaf.path[:-1], []).append(leaf)
        for parent_path in sorted(groups):
            siblings = groups[parent_path]
            donors = [
                reports[leaf.leaf_index]
                for leaf in siblings
                if reports[leaf.leaf_index].outcome is None
                and reports[leaf.leaf_index].abort_phase is not None
                and reports[leaf.leaf_index].abort_phase < ROUND_MASKED_INPUT
                and reports[leaf.leaf_index].survivors
            ]
            if not donors:
                continue
            targets = [
                leaf
                for leaf in siblings
                if reports[leaf.leaf_index].outcome is not None
            ]
            if not targets:
                stranded = sum(len(donor.survivors) for donor in donors)
                self._count_rebalance("stranded", stranded)
                self._record(
                    "rebalance-stranded",
                    parent=list(parent_path),
                    members=stranded,
                )
                continue
            sizes = {
                leaf.leaf_index: len(members_by_leaf[leaf.leaf_index])
                for leaf in targets
            }
            for donor in sorted(donors, key=lambda r: r.shard_index):
                moved: dict[int, list[int]] = {}
                overflow: list[int] = []
                for member in donor.survivors:
                    open_targets = [
                        leaf
                        for leaf in targets
                        if sizes[leaf.leaf_index] < self._max_shard_size
                    ]
                    if not open_targets:
                        overflow.append(member)
                        continue
                    target = min(
                        open_targets,
                        key=lambda leaf: (
                            sizes[leaf.leaf_index],
                            leaf.leaf_index,
                        ),
                    )
                    index = target.leaf_index
                    members_by_leaf[index].append(member)
                    sizes[index] += 1
                    retry_members.setdefault(
                        index, list(reports[index].members)
                    ).append(member)
                    moved.setdefault(index, []).append(member)
                self._count_rebalance(
                    "moved", sum(len(v) for v in moved.values())
                )
                self._count_rebalance("overflow", len(overflow))
                self._record(
                    "shard-rebalanced",
                    shard=donor.shard_index,
                    moved={
                        str(index): members
                        for index, members in sorted(moved.items())
                    },
                    overflow=overflow,
                )
        if not retry_members:
            return reports, []
        retry_start = max(report.ended_at for report in reports.values())
        retry_tasks = [
            self._build_task(
                index, sorted(members), retry_start, attempt=1
            )
            for index, members in sorted(retry_members.items())
        ]
        retried = self._dispatch(retry_tasks)
        final = dict(reports)
        for report in retried:
            final[report.shard_index] = report
        return final, retry_tasks

    # -- bottom-up composition -------------------------------------------

    def _node_rng(self, node: TreeNode) -> np.random.Generator:
        assert self._compose_entropy is not None
        return np.random.default_rng(
            np.random.SeedSequence(
                self._compose_entropy, spawn_key=(node.level, *node.path)
            )
        )

    def _compose_node(
        self, node: TreeNode, reports: dict[int, ShardReport]
    ) -> _NodeResult:
        if node.is_leaf:
            report = reports[node.leaf_index]
            if report.outcome is None:
                return _NodeResult(
                    modular_sum=None,
                    included=frozenset(),
                    wire=[],
                    error=f"shard {node.leaf_index}: {report.error}",
                )
            wire = (
                [report.outcome.wire] if report.outcome.wire is not None else []
            )
            return _NodeResult(
                modular_sum=report.outcome.modular_sum,
                included=report.outcome.included,
                wire=wire,
            )
        children = [
            self._compose_node(child, reports) for child in node.children
        ]
        live = [child for child in children if child.modular_sum is not None]
        included = frozenset().union(*(child.included for child in children))
        wire = [stats for child in children for stats in child.wire]
        if not live:
            reasons = "; ".join(
                child.error or "aborted" for child in children
            )
            return _NodeResult(
                modular_sum=None,
                included=frozenset(),
                wire=[],
                error=f"node {list(node.path)}: all children aborted "
                f"({reasons})",
            )
        compose_metrics = (
            MetricsRegistry() if self._metrics is not None else None
        )
        rng = (
            self._node_rng(node) if self._compose_entropy is not None else None
        )
        with self._wall_span(
            "tree-level", self._m_level_wall, level=str(node.level)
        ):
            modular_sum, compose_wire = compose(
                [child.modular_sum for child in live],
                self._modulus,
                self._composer,
                rng=rng,
                level=node.level,
                metrics=compose_metrics,
            )
        if compose_metrics is not None:
            self._metrics.absorb(
                compose_metrics.snapshot().with_labels(level=str(node.level))
            )
        if compose_wire is not None:
            wire.append(compose_wire)
        self._record(
            "tree-compose",
            level=node.level,
            node=list(node.path),
            composer=self._composer,
            children=len(live),
            aborted_children=len(children) - len(live),
        )
        return _NodeResult(
            modular_sum=modular_sum, included=included, wire=wire
        )

    # -- the round ---------------------------------------------------------

    def execute(self) -> RoundOutcome:
        """Run every leaf sub-round and compose the tree bottom-up.

        Returns:
            A :class:`~repro.simulation.rounds.RoundOutcome` whose
            ``modular_sum`` is the tree composition of the surviving
            shards' sums (bit-identical across composers), ``included``
            the union of their survivor sets, ``completed_at`` the
            slowest shard's finish time (to which the parent clock is
            advanced), and ``composer`` how interior nodes composed.

        Raises:
            AggregationError: Only if *every* leaf shard aborted below
                its threshold (after rebalancing, when enabled).
        """
        started_at = self._clock.now
        tasks = [
            self._build_task(leaf.leaf_index, leaf.members, started_at)
            for leaf in self._leaves
        ]
        all_tasks = list(tasks)
        try:
            reports = {
                report.shard_index: report
                for report in self._dispatch(tasks)
            }
            if self._rebalance:
                reports, retry_tasks = self._rebalance_pass(reports)
                all_tasks.extend(retry_tasks)
        finally:
            if self._owns_backend:
                self._backend.close()
        final_reports = [reports[leaf.leaf_index] for leaf in self._leaves]
        self.last_reports = tuple(final_reports)
        # Only a process pool moves vectors out of this process.
        if self._metrics is not None and isinstance(
            self._backend, ProcessBackend
        ):
            moved = sum(
                vector.nbytes
                for task in all_tasks
                for vector in task.vectors.values()
            )
            moved += sum(
                report.outcome.modular_sum.nbytes
                for report in final_reports
                if report.outcome is not None
            )
            self._m_transfer.labels(transport="pickle").inc(moved)
        with self._wall_span("shard-merge", self._m_merge):
            if self._metrics is not None:
                for report in final_reports:
                    if report.metrics is not None:
                        self._metrics.absorb(
                            report.metrics.with_labels(
                                shard=str(report.shard_index)
                            )
                        )
            self._merge_traces(final_reports)
        completed_at = max(report.ended_at for report in final_reports)
        self._clock.advance_to(completed_at)
        for report in final_reports:
            if report.outcome is None:
                self._record(
                    "shard-aborted",
                    shard=report.shard_index,
                    members=len(report.members),
                    error=report.error,
                )
        succeeded = [
            report for report in final_reports if report.outcome is not None
        ]
        if not succeeded:
            reasons = "; ".join(
                f"shard {report.shard_index}: {report.error}"
                for report in final_reports
            )
            raise AggregationError(
                f"all {len(final_reports)} shards aborted — {reasons}"
            )
        root = self._compose_node(self._root, reports)
        assert root.modular_sum is not None  # at least one leaf succeeded
        included = root.included
        wire = WireStats().merge(root.wire)
        self._record(
            "sharded-round-complete",
            shards=len(final_reports),
            aborted_shards=len(final_reports) - len(succeeded),
            backend=self._backend.name,
            included=len(included),
            dropped=len(self._vectors) - len(included),
            composer=self._composer,
            topology=self._topology.describe(),
        )
        return RoundOutcome(
            modular_sum=root.modular_sum,
            included=included,
            dropped=frozenset(self._vectors) - included,
            started_at=started_at,
            completed_at=completed_at,
            wire=wire,
            composer=self._composer,
        )
