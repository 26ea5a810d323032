"""Sharded secure aggregation: k Bonawitz sub-rounds composed modularly.

A flat Bonawitz round costs ``O(n^2)`` in pairwise masks and Shamir
shares, which caps the cohort size a single round can afford.  This
module opens the next scaling axis the way production federations do
(DDP-SA, Wei et al.; the hybrid approach of Truex et al.): partition
the round's cohort into ``k`` shards
(:func:`repro.secagg.tree.partition_members`), run one *independent*
dropout-tolerant :class:`~repro.simulation.rounds.AsyncSecAggRound` per
shard — each with its own Shamir threshold, phase deadlines, and
private :class:`~repro.simulation.clock.SimulatedClock` — and compose
the shard sums (:func:`repro.secagg.compose.compose`), which is
bit-identical to the flat sum over the union of the shards' survivors.

Cost: ``k`` shards of ``n/k`` clients do ``O(n^2 / k)`` total protocol
work, and the shards are embarrassingly parallel.  The
:class:`ExecutionBackend` knob chooses how they run:

* ``"inline"`` (default) — sequentially in this process; zero overhead,
  ideal for tests and small cohorts.
* ``"process"`` — fanned out over a reusable
  :class:`concurrent.futures.ProcessPoolExecutor`, one OS process per
  worker, for multi-core hosts; shard vectors cross the process
  boundary inside the task pickle.

Both backends produce **bit-identical results**: every shard derives
its protocol randomness from a spawn-keyed
:class:`numpy.random.SeedSequence` — ``SeedSequence(entropy,
spawn_key=(shard_index,))`` with the entropy drawn once from the
round's RNG before dispatch — so no state crosses the process boundary
except the picklable :class:`ShardTask`.

Simulated time composes as a real parallel deployment's would: every
shard's private clock starts at the parent clock's ``now``, the round
completes when the *slowest* shard completes, and the parent clock is
advanced to that instant (:meth:`SimulatedClock.advance_to`).  Shard
traces are merged into the parent trace, each event annotated with its
shard index, in deterministic (time, shard) order.

Failure semantics are hierarchical: a shard whose survivor count falls
below its Shamir threshold aborts *alone* — its members count as
dropped for the round and the remaining shards' sums still compose
(or, with rebalancing enabled on the orchestrator, pre-masking
survivors are re-homed to sibling shards first).  Only if every shard
aborts does the round raise :class:`~repro.errors.AggregationError`,
mirroring the flat driver.

This module holds the level-agnostic primitives — threshold rule,
picklable shard tasks/reports, and the execution backends.
Orchestration lives in :mod:`repro.simulation.hierarchy`
(:class:`~repro.simulation.hierarchy.HierarchicalSecAggRound`; the flat
``k``-shard round is its ``topology=str(k)`` case).
"""

from __future__ import annotations

import abc
import dataclasses
import math
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.errors import AggregationError, ConfigurationError
from repro.secagg.tree import MIN_SHARD_SIZE
from repro.simulation.clock import SimulatedClock
from repro.simulation.events import SimulationTrace, TraceEvent
from repro.simulation.population import ClientPlan
from repro.simulation.rounds import AsyncSecAggRound, RoundOutcome
from repro.telemetry.registry import MetricsRegistry, MetricsSnapshot

__all__ = [
    "MIN_SHARD_SIZE",
    "DEFAULT_BACKEND",
    "EXECUTION_BACKENDS",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessBackend",
    "ShardReport",
    "ShardTask",
    "get_execution_backend",
    "run_shard",
    "shamir_threshold",
    "validate_threshold_fraction",
]

#: Hard cap on pool width; shards beyond it queue on existing workers.
_MAX_POOL_WORKERS = 16


def validate_threshold_fraction(threshold_fraction: float) -> float:
    """Validate a Shamir threshold fraction; returns it unchanged.

    The single ``(0, 1]`` range check (and single error message) shared
    by :func:`shamir_threshold`, the hierarchical round orchestrators,
    and the simulation config — every layer rejects a bad fraction the
    same way.

    Raises:
        ConfigurationError: If the fraction is outside ``(0, 1]``.
    """
    if not 0 < threshold_fraction <= 1:
        raise ConfigurationError(
            f"threshold_fraction must be in (0, 1], got {threshold_fraction}"
        )
    return threshold_fraction


def shamir_threshold(threshold_fraction: float, cohort_size: int) -> int:
    """The Shamir reconstruction threshold for a cohort (or shard).

    ``max(2, ceil(threshold_fraction * cohort_size))`` — the single
    definition shared by the flat engine path, the per-shard sub-rounds,
    and the throughput benchmarks, so flat-vs-sharded comparisons always
    run under the same dropout-tolerance rule.
    """
    validate_threshold_fraction(threshold_fraction)
    return max(2, math.ceil(threshold_fraction * cohort_size))


@dataclasses.dataclass(frozen=True)
class ShardTask:
    """Everything one shard sub-round needs — picklable by design, so
    the process backend ships it to a worker unchanged.

    Attributes:
        shard_index: Position of this shard in the partition (also the
            spawn key selecting its RNG stream).
        vectors: The shard members' private input vectors.
        modulus: Aggregation modulus ``m``.
        threshold: This shard's Shamir reconstruction threshold.
        start_time: Parent clock ``now`` at round start; the shard's
            private clock starts here so timestamps share one epoch.
        entropy: Round-scoped seed material; the shard's RNG is
            ``default_rng(SeedSequence(entropy, spawn_key=(shard_index,)))``.
        plans: Behaviour plans for the shard's members.
        phase_timeout: Per-phase server deadline (simulated seconds).
        collect_metrics: When true the worker meters its sub-round into
            a private registry and ships the (picklable) snapshot back
            on the report for the parent to absorb under a ``shard``
            label.
        attempt: Execution attempt for this shard within the round
            (0 = initial dispatch).  Straggler rebalancing re-runs a
            shard with re-homed members as attempt 1; the attempt
            extends the RNG spawn key so the retry draws a fresh —
            but still deterministic — protocol stream, while attempt 0
            keeps the legacy ``(shard_index,)`` key bit-identically.
    """

    shard_index: int
    vectors: dict[int, np.ndarray]
    modulus: int
    threshold: int
    start_time: float
    entropy: int
    plans: dict[int, ClientPlan]
    phase_timeout: float
    collect_metrics: bool = False
    attempt: int = 0


@dataclasses.dataclass(frozen=True)
class ShardReport:
    """One shard sub-round's complete result, back from any backend.

    Attributes:
        shard_index: Which shard this reports on.
        members: The shard's cohort slice.
        outcome: The sub-round outcome, or ``None`` if the shard
            aborted below its threshold.
        error: The abort reason when ``outcome`` is ``None``.
        ended_at: Shard-clock time the sub-round finished (success or
            abort) — the round completes at the max across shards.
        events: The shard's trace events (its private clock shares the
            parent's epoch, so times merge directly).
        pending_timers: Shard-clock leak counter at exit; zero when the
            timer-cancellation contract held.
        metrics: Snapshot of the shard's private metrics registry when
            the task asked for one (``collect_metrics``), else ``None``.
            Frozen tuples all the way down, so it pickles across the
            process boundary unchanged.
        abort_phase: On abort, the protocol phase whose threshold check
            failed (``None`` on success).  Aborts at a phase before
            ``ROUND_MASKED_INPUT`` happened before any masked input was
            committed, so the survivors are still eligible for
            rebalancing to a sibling shard.
        survivors: On abort, the members that had delivered the failing
            phase — the rebalancing candidates.
        attempt: Which execution attempt produced this report (mirrors
            :attr:`ShardTask.attempt`).
    """

    shard_index: int
    members: tuple[int, ...]
    outcome: RoundOutcome | None
    error: str | None
    ended_at: float
    events: tuple[TraceEvent, ...]
    pending_timers: int
    metrics: MetricsSnapshot | None = None
    abort_phase: int | None = None
    survivors: tuple[int, ...] = ()
    attempt: int = 0


def run_shard(task: ShardTask) -> ShardReport:
    """Execute one shard's Bonawitz sub-round on a private clock.

    Module-level (not a method) so :class:`ProcessBackend` can pickle a
    bare reference to it; the inline backend calls it directly.
    """
    clock = SimulatedClock(start=task.start_time)
    trace = SimulationTrace(clock)
    registry = MetricsRegistry() if task.collect_metrics else None
    # Attempt 0 keeps the legacy single-element spawn key so existing
    # rounds stay bit-identical; a rebalancing retry extends it.
    spawn_key = (
        (task.shard_index,)
        if task.attempt == 0
        else (task.shard_index, task.attempt)
    )
    rng = np.random.default_rng(
        np.random.SeedSequence(task.entropy, spawn_key=spawn_key)
    )
    sub_round = AsyncSecAggRound(
        vectors=task.vectors,
        modulus=task.modulus,
        threshold=task.threshold,
        clock=clock,
        rng=rng,
        plans=task.plans,
        phase_timeout=task.phase_timeout,
        trace=trace,
        metrics=registry,
    )
    outcome: RoundOutcome | None = None
    error: str | None = None
    try:
        outcome = clock.run(sub_round.run())
    except AggregationError as aggregation_error:
        error = str(aggregation_error)
    return ShardReport(
        shard_index=task.shard_index,
        members=tuple(sorted(task.vectors)),
        outcome=outcome,
        error=error,
        ended_at=clock.now,
        events=tuple(trace.events),
        pending_timers=clock.pending_timers,
        metrics=registry.snapshot() if registry is not None else None,
        abort_phase=sub_round.abort_phase if error is not None else None,
        survivors=tuple(sorted(sub_round.survivors_at_abort))
        if error is not None
        else (),
        attempt=task.attempt,
    )


class ExecutionBackend(abc.ABC):
    """How a round's shard sub-rounds are executed.

    Backends are pure executors: they receive picklable
    :class:`ShardTask`\\ s, run :func:`run_shard` on each, and return
    the reports **in task order** — determinism never depends on
    completion order.
    """

    #: Wire/CLI name of the backend.
    name: str = "abstract"

    @abc.abstractmethod
    def run_shards(self, tasks: Sequence[ShardTask]) -> list[ShardReport]:
        """Execute every task; reports align with ``tasks`` by index."""

    def warm(self) -> None:
        """Eagerly acquire lazy resources (worker processes), so
        start-up cost lands here rather than in the first round —
        benchmarks call this before starting their timers."""

    def close(self) -> None:
        """Release held resources (worker processes); idempotent."""


class InlineBackend(ExecutionBackend):
    """Run shards sequentially in the calling process (the default)."""

    name = "inline"

    def run_shards(self, tasks: Sequence[ShardTask]) -> list[ShardReport]:
        return [run_shard(task) for task in tasks]


class ProcessBackend(ExecutionBackend):
    """Fan shards out over a reusable OS-process pool.

    The pool is created lazily on first use and reused across rounds
    (worker start-up would otherwise dominate small rounds); call
    :meth:`close` — or use the backend as a context manager — to reap
    the workers.  Shard vectors and result sums cross the process
    boundary inside the task and report pickles.

    Args:
        max_workers: Pool width; defaults to
            ``min(cpu_count, _MAX_POOL_WORKERS)`` but at least 2, so
            shards overlap even where the container under-reports cores.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self._max_workers = max_workers
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            workers = self._max_workers
            if workers is None:
                workers = min(
                    max(os.cpu_count() or 1, 2), _MAX_POOL_WORKERS
                )
            self._pool = ProcessPoolExecutor(max_workers=workers)
        return self._pool

    def run_shards(self, tasks: Sequence[ShardTask]) -> list[ShardReport]:
        # map() preserves task order regardless of completion order.
        try:
            return list(self._ensure_pool().map(run_shard, tasks))
        except BrokenProcessPool:
            # A worker died (OOM kill, crash): the executor refuses all
            # further work, so drop it — the next round builds a fresh
            # pool instead of failing the rest of the run.
            self.close()
            raise

    def warm(self) -> None:
        self._ensure_pool()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Backend registry, keyed by wire/CLI name.
EXECUTION_BACKENDS = {
    InlineBackend.name: InlineBackend,
    ProcessBackend.name: ProcessBackend,
    # Alias of "process", kept only because bench/layers.py (frozen by
    # BENCHMARK.json) still asks for it; the next benchmark PR drops it.
    "process-pickle": ProcessBackend,
}

#: The backend used when none is requested.
DEFAULT_BACKEND = InlineBackend.name


def get_execution_backend(
    backend: ExecutionBackend | str | None,
) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    Raises:
        ConfigurationError: For an unknown backend name.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        factory = EXECUTION_BACKENDS[backend]
    except KeyError:
        raise ConfigurationError(
            f"unknown execution backend {backend!r}; expected one of "
            f"{sorted(EXECUTION_BACKENDS)}"
        ) from None
    return factory()
