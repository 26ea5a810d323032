"""The simulation engine: full DP-FL training over an unreliable population.

:class:`SimulationEngine` is the top-level orchestrator this package
exists for.  Each training round it

1. Poisson-samples a cohort from the :class:`~repro.simulation.population.Population`
   (the sampling the privacy accountant's amplification lemma assumes),
2. computes each cohort member's per-record gradient and encodes it with
   the paper's Algorithm-4 pipeline (:class:`~repro.core.client.GradientEncoder`
   with the calibrated Skellam mixture noise sampler),
3. drives the encoded vectors through a dropout-tolerant asynchronous
   Bonawitz round (:class:`~repro.simulation.rounds.AsyncSecAggRound`)
   on the deterministic simulated clock — crashes and stragglers
   shrink the cohort, Shamir reconstruction cleans up after them,
4. decodes the surviving cohort's aggregate with Algorithm 6
   (:class:`~repro.core.server.GradientDecoder`) and applies the server
   optimiser step via the :class:`~repro.fl.training.FederatedTrainer`
   round loop, and
5. charges one round of Poisson-subsampled composition to a running
   :class:`~repro.accounting.rdp.RdpAccountant` ledger, so the run
   reports its cumulative ``(epsilon, delta)`` alongside accuracy.

Ledger policy — honest about dropout: each contributor adds one noise
share, so a round that lost clients mid-protocol carries less total
noise than calibration assumed and truly costs *more* epsilon.  The
ledger charges such rounds at an effective contributor count scaled
down by the survivor fraction (``floor(expected * |included|/|cohort|)``)
instead of pretending the cohort was whole.  Poisson fluctuation of the
cohort size itself is *not* penalized — that randomness belongs to the
amplification lemma, and following the paper's convention it is
accounted at the expected batch size.  Rounds skipped for an empty
cohort or aborted below the SecAgg threshold released nothing and are
charged at the calibrated expectation.  Consequently the cumulative
epsilon equals the calibrated budget after ``T`` dropout-free rounds
and visibly exceeds it under dropout, per round, in the
:class:`RoundRecord` stream.

Determinism: all randomness flows from ``config.seed`` through the
population's spawn-keyed streams, and all concurrency runs on the
simulated clock, so a run is bit-reproducible — asserted via
:attr:`SimulationResult.parameters_digest`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

from repro.accounting.rdp import RdpAccountant
from repro.config import CompressionConfig, PrivacyBudget
from repro.core.calibration import _memoised
from repro.core.client import GradientEncoder, skellam_encoder
from repro.core.server import GradientDecoder
from repro.errors import (
    AggregationError,
    ChaosKillError,
    ConfigurationError,
    PrivacyAccountingError,
)
from repro.fl.data import Dataset, fashion_mnist_surrogate, mnist_surrogate
from repro.fl.model import MLPClassifier
from repro.fl.training import FederatedTrainer, TrainingConfig, TrainingHistory
from repro.linalg.hadamard import RandomRotation
from repro.mechanisms.smm import SkellamMixtureMechanism
from repro.simulation.clock import SimulatedClock
from repro.simulation.events import SimulationTrace
from repro.resilience.chaos import (
    Blackout,
    ChaosSchedule,
    Fault,
    Partition,
    ServerKill,
    parse_chaos,
)
from repro.simulation.population import (
    PURPOSE_ENCODING,
    PURPOSE_PROTOCOL,
    AvailabilityModel,
    ClientPlan,
    Population,
)
from repro.linalg.modular import sum_mod
from repro.secagg.compose import validate_composer
from repro.secagg.tree import TreeTopology
from repro.simulation.hierarchy import HierarchicalSecAggRound
from repro.simulation.rounds import AsyncSecAggRound
from repro.simulation.sharding import (
    InlineBackend,
    ProcessBackend,
    get_execution_backend,
    shamir_threshold,
    validate_threshold_fraction,
)
from repro.telemetry import (
    COHORT_SIZE_BUCKETS,
    MetricsRegistry,
    MetricsReport,
)

#: Run-scoped spawn-key purposes (distinct namespace from the per-round
#: purposes in :mod:`repro.simulation.population` by key length).
_SETUP_DATA = 10
_SETUP_MODEL = 11
_SETUP_ROTATION = 12
_SETUP_TRAINING = 13

_DATASETS = {"mnist": mnist_surrogate, "fashion": fashion_mnist_surrogate}

#: Backends a config may name — what ``simulate --backend`` offers.
_CONFIG_BACKENDS = (InlineBackend.name, ProcessBackend.name)


@dataclasses.dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulated training run.

    Attributes:
        population_size: Registered clients (one record each).
        expected_cohort: Expected Poisson cohort size per round ``|B|``.
        rounds: Training rounds ``T``.
        modulus: SecAgg modulus ``m``.
        gamma: Algorithm-4 scale parameter.
        epsilon: Target DP epsilon for the whole run; ``None`` trains
            non-privately (and without SecAgg).
        delta: Target DP delta.
        threshold_fraction: Shamir threshold as a fraction of the
            sampled cohort (0.6 tolerates up to 40% dropout).
        phase_timeout: Server-side phase deadline (simulated seconds).
        hidden: Hidden width of the surrogate-MNIST classifier.
        test_records: Held-out evaluation records.
        learning_rate: Server optimiser step size.
        optimizer: ``"adam"`` or ``"sgd"``.
        lr_schedule: Server learning-rate schedule name.
        eval_every: Evaluate accuracy every this many rounds (0 = only
            at the end).
        dataset: ``"mnist"`` or ``"fashion"`` surrogate.
        seed: Root seed; equal seeds give bit-identical runs.
        verify_aggregate: Record, per round, whether the SecAgg output
            exactly equals the survivors' direct modular sum (a
            simulation-side correctness oracle, not something a real
            server could compute).
        tree: Aggregation-tree topology string, root level first.
            ``"k"`` partitions each cohort into ``k`` Bonawitz
            sub-rounds whose sums compose modularly (bit-identical to
            the flat sum over the same survivors, ``O(n^2/k)`` total
            protocol work); ``"4x4"`` is a 3-level region→…→global
            tree.  ``None`` (default) runs the flat single-instance
            protocol.
        compose: How interior tree nodes combine child sums —
            ``"clear"`` (default, outer modular addition; the
            composing node sees every intermediate sum) or ``"secagg"``
            (an outer Bonawitz round over virtual clients; every
            intermediate sum stays masked).  Sums are bit-identical
            either way.
        rebalance: Enable cross-shard straggler rebalancing: a shard
            driven below its Shamir threshold before the masking phase
            commits re-homes its survivors onto sibling shards instead
            of dropping them.  Off by default (re-homing changes which
            members contribute, so pinned digests cover the default).
        backend: How shard sub-rounds execute — ``"inline"``
            (sequential, default) or ``"process"`` (a reusable OS
            process pool; shard vectors travel inside the task pickle);
            results are bit-identical either way.
        telemetry: Meter the run into a
            :class:`~repro.telemetry.MetricsRegistry` (phase latencies,
            round/dropout/wire counters, cumulative-epsilon gauge) and
            attach the end-of-run :class:`~repro.telemetry.MetricsReport`
            to the result.  Instrumentation never touches the RNG, so
            runs are bit-identical either way; ``False`` removes even
            the bookkeeping cost.
        trace_max_events: Ring-buffer cap on the run's
            :class:`~repro.simulation.events.SimulationTrace` (oldest
            events beyond the cap are dropped and counted); ``None``
            (default) retains every event.
        chaos: Declarative fault schedule
            (:func:`~repro.resilience.chaos.parse_chaos` syntax, e.g.
            ``"kill@masked-input:r2;blackout:3@share-keys"``) injected
            into the simulated rounds: blackouts become permanent
            drop-outs for the last ``K`` cohort members, partitions
            become per-phase latency bumps, and a kill crashes the
            simulated server at the phase — restarted (``kill@``) the
            round is retried once and recorded ``recovered``; without
            restart (``abort@``) the round aborts cleanly.  Kills
            require the flat topology (no ``tree``).
            ``None`` (default) injects nothing.
    """

    population_size: int = 32
    expected_cohort: int = 16
    rounds: int = 5
    modulus: int = 2**16
    gamma: float = 64.0
    epsilon: float | None = 5.0
    delta: float = 1e-5
    threshold_fraction: float = 0.6
    phase_timeout: float = 60.0
    hidden: int = 8
    test_records: int = 128
    learning_rate: float = 0.01
    optimizer: str = "adam"
    lr_schedule: str = "constant"
    eval_every: int = 0
    dataset: str = "mnist"
    seed: int = 0
    verify_aggregate: bool = False
    backend: str = "inline"
    tree: str | None = None
    compose: str = "clear"
    rebalance: bool = False
    telemetry: bool = True
    trace_max_events: int | None = None
    chaos: str | None = None

    def __post_init__(self) -> None:
        if self.tree is not None:
            TreeTopology.parse(self.tree)  # Raises on a malformed shape.
        validate_composer(self.compose)
        if self.trace_max_events is not None and self.trace_max_events < 1:
            raise ConfigurationError(
                "trace_max_events must be >= 1 or None, got "
                f"{self.trace_max_events}"
            )
        if self.backend not in _CONFIG_BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {sorted(_CONFIG_BACKENDS)}, "
                f"got {self.backend!r}"
            )
        if self.expected_cohort > self.population_size:
            raise ConfigurationError(
                f"expected_cohort {self.expected_cohort} exceeds the "
                f"population of {self.population_size}"
            )
        validate_threshold_fraction(self.threshold_fraction)
        if self.chaos is not None:
            schedule = parse_chaos(self.chaos)  # Raises on malformed.
            if self.epsilon is None:
                raise ConfigurationError(
                    "chaos faults target the SecAgg round and are "
                    "silently inert on the non-private baseline; drop "
                    "--no-privacy or drop --chaos"
                )
            has_kill = any(
                isinstance(fault, ServerKill) for fault in schedule.faults
            )
            if has_kill and self.aggregation_topology() is not None:
                raise ConfigurationError(
                    "kill/abort chaos faults require the flat topology "
                    "(no tree): hierarchical rounds have no "
                    "single server to crash"
                )
        if self.dataset not in _DATASETS:
            raise ConfigurationError(
                f"dataset must be one of {sorted(_DATASETS)}, "
                f"got {self.dataset!r}"
            )

    def aggregation_topology(self) -> TreeTopology | None:
        """The aggregation tree this run uses, or ``None`` for flat."""
        if self.tree is None:
            return None
        return TreeTopology.parse(self.tree)


@dataclasses.dataclass(frozen=True)
class RoundRecord:
    """What happened in one scheduled round.

    Attributes:
        index: 1-based round number.
        cohort: Sampled client indices (possibly empty).
        included: Clients whose input made the aggregate.
        dropped: Cohort members lost to crashes/stragglers.
        epsilon: Cumulative ledger epsilon *after* this round.
        aborted: True if aggregation fell below the SecAgg threshold
            (no model update happened).
        aggregate_matches: Exact-match oracle result (``None`` unless
            ``config.verify_aggregate``).
        started_at: Simulated start time.
        completed_at: Simulated completion time.
        wire_messages: Protocol messages moved this round (both
            directions, all phases; 0 when no SecAgg traffic happened).
        wire_bytes: Serialized wire bytes moved this round.
        composer: How intermediate sums were combined (``"clear"`` /
            ``"secagg"``) for hierarchical rounds; ``None`` for flat
            rounds, which have no intermediate sums.
        recovered: True when a chaos server-kill fired this round and
            the restarted server recovered it (the recorded outcome is
            the retry's).
    """

    index: int
    cohort: tuple[int, ...]
    included: frozenset[int]
    dropped: frozenset[int]
    epsilon: float
    aborted: bool = False
    aggregate_matches: bool | None = None
    started_at: float = 0.0
    completed_at: float = 0.0
    wire_messages: int = 0
    wire_bytes: int = 0
    composer: str | None = None
    recovered: bool = False


@dataclasses.dataclass(frozen=True)
class SimulationResult:
    """Outcome of a full simulated training run.

    Attributes:
        records: One entry per scheduled round.
        history: The trainer's accuracy/loss history.
        epsilon: Final cumulative epsilon (``nan`` for non-private).
        delta: The delta the ledger converted at.
        mechanism_summary: Calibration description of the mechanism.
        sim_duration: Total simulated seconds of SecAgg traffic.
        parameters_digest: SHA-256 of the final model parameters —
            equal digests prove bit-identical runs.
        metrics: End-of-run :class:`~repro.telemetry.MetricsReport`
            (exportable to Prometheus text or JSON lines), or ``None``
            when the run disabled telemetry.
    """

    records: tuple[RoundRecord, ...]
    history: TrainingHistory
    epsilon: float
    delta: float
    mechanism_summary: dict
    sim_duration: float
    parameters_digest: str
    metrics: MetricsReport | None = None

    @property
    def final_accuracy(self) -> float:
        """Test accuracy of the final model."""
        return self.history.final_accuracy


def _apply_chaos_plans(
    plans: dict[int, ClientPlan],
    cohort: tuple[int, ...],
    faults: tuple[Fault, ...],
) -> dict[int, ClientPlan]:
    """Fold a round's chaos faults into its availability plans.

    Blackouts turn the last ``K`` cohort members permanently dark at the
    fault's phase (never *reviving* a client that would have dropped
    earlier anyway); partitions add the partition duration to those
    members' latency at the phase — a healed partition shows up as a
    straggle, and one longer than the phase deadline as an eviction.
    Server kills are not plan-level faults and are handled by the round
    driver.
    """
    ordered = list(cohort)
    patched = dict(plans)
    for fault in faults:
        if isinstance(fault, Blackout) and fault.clients > 0:
            for client in ordered[-fault.clients:]:
                plan = patched.get(client, ClientPlan())
                drop = (
                    fault.phase
                    if plan.drop_phase is None
                    else min(plan.drop_phase, fault.phase)
                )
                patched[client] = dataclasses.replace(
                    plan, drop_phase=drop
                )
        elif isinstance(fault, Partition) and fault.clients > 0:
            for client in ordered[-fault.clients:]:
                plan = patched.get(client, ClientPlan())
                latencies = list(plan.latencies)
                latencies[fault.phase] += fault.duration
                patched[client] = dataclasses.replace(
                    plan, latencies=tuple(latencies)
                )
    return patched


class _AsyncRoundTrainer(FederatedTrainer):
    """FederatedTrainer whose rounds run through the simulation engine."""

    def __init__(self, engine: "SimulationEngine", *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._engine = engine
        self._current_cohort: tuple[int, ...] = ()

    def _select_round_participants(
        self, rng: np.random.Generator, round_index: int
    ) -> np.ndarray:
        cohort = self._engine.population.sample_cohort(
            round_index, self.config.expected_batch
        )
        self._current_cohort = cohort
        if not cohort:
            self._engine._record_skipped_round(round_index)
            return np.empty(0, dtype=np.int64)
        return np.asarray([u - 1 for u in cohort], dtype=np.int64)

    def _aggregate_gradients(
        self, batch: Dataset, rng: np.random.Generator, round_index: int
    ) -> np.ndarray | None:
        return self._engine._aggregate_round(
            batch, round_index, self._current_cohort
        )


class SimulationEngine:
    """Orchestrates DP federated training over a simulated population.

    Args:
        config: Run parameters.
        availability: Client behaviour model (dropout/stragglers/churn);
            defaults to everyone always online.
        train: Override the training dataset (defaults to the surrogate
            named by ``config.dataset``, one record per client).
        test: Override the evaluation dataset.
    """

    def __init__(
        self,
        config: SimulationConfig,
        availability: AvailabilityModel | None = None,
        train: Dataset | None = None,
        test: Dataset | None = None,
    ) -> None:
        self.config = config
        self.population = Population(
            config.population_size, availability, seed=config.seed
        )
        if train is None or test is None:
            maker = _DATASETS[config.dataset]
            made_train, made_test = maker(
                self.population.setup_rng(_SETUP_DATA),
                config.population_size,
                config.test_records,
            )
            train = train if train is not None else made_train
            test = test if test is not None else made_test
        if train.num_records != config.population_size:
            raise ConfigurationError(
                f"training set has {train.num_records} records for a "
                f"population of {config.population_size} (one record per "
                "client)"
            )
        self.compression = CompressionConfig(
            modulus=config.modulus, gamma=config.gamma
        )
        self.mechanism = (
            SkellamMixtureMechanism(self.compression)
            if config.epsilon is not None
            else None
        )
        # Tiny populations can miss a class entirely; size the softmax
        # head over both splits so evaluation never indexes past it.
        num_classes = max(train.num_classes, test.num_classes)
        self.model = MLPClassifier(
            [train.num_features, config.hidden, num_classes],
            self.population.setup_rng(_SETUP_MODEL),
        )
        budget = (
            PrivacyBudget(epsilon=config.epsilon, delta=config.delta)
            if config.epsilon is not None
            else None
        )
        self._trainer = _AsyncRoundTrainer(
            self,
            self.model,
            self.mechanism,
            train,
            test,
            TrainingConfig(
                rounds=config.rounds,
                expected_batch=config.expected_cohort,
                budget=budget,
                learning_rate=config.learning_rate,
                optimizer=config.optimizer,
                eval_every=config.eval_every,
                lr_schedule=config.lr_schedule,
            ),
        )
        self.encoder: GradientEncoder | None = None
        self.decoder: GradientDecoder | None = None
        self.trace: SimulationTrace | None = None
        self._clock: SimulatedClock | None = None
        self._ledger: RdpAccountant | None = None
        self._curves: dict[int, object] = {}  # survivor count -> RDP curve
        self._records: list[RoundRecord] = []
        self._backend = None  # ExecutionBackend, built per run()
        self._chaos: ChaosSchedule | None = (
            parse_chaos(config.chaos) if config.chaos is not None else None
        )
        self._metrics: MetricsRegistry | None = None
        self._m_sim_rounds = self._m_cohort = None
        self._m_epsilon = self._m_fallbacks = None
        self._m_recovery = None

    @property
    def sampling_rate(self) -> float:
        """Poisson rate ``q`` each client is sampled with per round."""
        return min(1.0, self.config.expected_cohort / self.config.population_size)

    def run(self) -> SimulationResult:
        """Execute the full training run; returns the collected result."""
        self._records = []
        self._clock = SimulatedClock()
        self.trace = SimulationTrace(
            self._clock, max_events=self.config.trace_max_events
        )
        self.encoder = self.decoder = self._ledger = None
        self._curves = {}
        if self.config.telemetry:
            self._metrics = MetricsRegistry()
            self._m_sim_rounds = self._metrics.counter(
                "sim_rounds_total",
                "Scheduled training rounds, by status.",
            )
            self._m_cohort = self._metrics.histogram(
                "sim_cohort_size",
                "Poisson-sampled cohort size per scheduled round.",
                buckets=COHORT_SIZE_BUCKETS,
            )
            self._m_epsilon = self._metrics.gauge(
                "sim_cumulative_epsilon",
                "Cumulative privacy ledger epsilon after the latest "
                "charged round.",
            )
            self._m_fallbacks = self._metrics.counter(
                "sim_ledger_fallbacks_total",
                "Rounds charged at the calibrated expectation because "
                "the realized survivor count was infeasible.",
            )
            self._m_recovery = self._metrics.counter(
                "round_recovery_total",
                "Chaos server-kill rounds, by recovery outcome.",
            )
        else:
            self._metrics = None
            self._m_sim_rounds = self._m_cohort = None
            self._m_epsilon = self._m_fallbacks = None
            self._m_recovery = None
        # Only sharded/tree runs execute through a backend; flat runs
        # drive AsyncSecAggRound on the engine clock directly.
        self._backend = (
            get_execution_backend(self.config.backend)
            if self.config.aggregation_topology() is not None
            else None
        )
        # trainer.run() calibrates the mechanism before its first round;
        # the wire pipeline is then built lazily on the first round hook.
        try:
            history = self._trainer.run(
                self.population.setup_rng(_SETUP_TRAINING)
            )
        finally:
            # The engine owns the backend it built (worker processes for
            # "process"); reap it even when a round raised.
            if self._backend is not None:
                self._backend.close()
                self._backend = None
        digest = hashlib.sha256(
            np.ascontiguousarray(self.model.get_flat_parameters()).tobytes()
        ).hexdigest()
        report: MetricsReport | None = None
        if self._metrics is not None:
            self._metrics.gauge(
                "sim_clock_seconds",
                "Simulated seconds the full run spanned.",
            ).set(self._clock.now)
            self._metrics.gauge(
                "sim_trace_dropped_events",
                "Trace events evicted by the ring-buffer cap.",
            ).set(float(self.trace.dropped_events))
            report = MetricsReport(snapshot=self._metrics.snapshot())
        return SimulationResult(
            records=tuple(self._records),
            history=history,
            epsilon=self._current_epsilon(),
            delta=self.config.delta,
            mechanism_summary=(
                self.mechanism.describe() if self.mechanism else {}
            ),
            sim_duration=self._clock.now,
            parameters_digest=digest,
            metrics=report,
        )

    def _ensure_wired(self) -> None:
        """Build the shared wire pipeline once the mechanism is calibrated.

        Called lazily from the first round hook, after
        ``FederatedTrainer.run`` has performed its (single) calibration.
        """
        if self.mechanism is None or self.encoder is not None:
            return
        rotation = RandomRotation.create(
            self.model.num_parameters, self.population.setup_rng(_SETUP_ROTATION)
        )
        assert self.mechanism.lam is not None  # Set by calibration.
        self.encoder = skellam_encoder(
            rotation=rotation,
            compression=self.compression,
            clip=self.mechanism.clip,
            lam=self.mechanism.lam,
        )
        self.decoder = GradientDecoder(
            rotation=rotation,
            compression=self.compression,
            warn_on_saturation=False,
        )
        self._ledger = RdpAccountant(
            orders=self._trainer.config.budget.orders
        )

    def _round_curve(self, contributors: int):
        """The (memoised) one-round RDP curve at a survivor count."""
        if contributors not in self._curves:
            self._curves[contributors] = _memoised(
                self.mechanism.per_round_rdp_curve(contributors)
            )
        return self._curves[contributors]

    def _charge_round(self, contributors: int) -> float:
        """Charge one round at the realized survivor count.

        Falls back to the calibrated expectation if the reduced noise
        level is infeasible at every Renyi order the ledger still
        tracks (an extreme-dropout corner; the fallback under-charges
        and is surfaced in the trace).
        """
        if self._ledger is None:
            return float("nan")
        try:
            self._ledger.step_subsampled(
                self._round_curve(contributors), self.sampling_rate
            )
        except PrivacyAccountingError:
            self.trace.record(
                "ledger-fallback", contributors=contributors
            )
            if self._m_fallbacks is not None:
                self._m_fallbacks.inc()
            self._ledger.step_subsampled(
                self._round_curve(self.config.expected_cohort),
                self.sampling_rate,
            )
        epsilon = self._current_epsilon()
        if self._m_epsilon is not None and not math.isnan(epsilon):
            self._m_epsilon.set(epsilon)
        return epsilon

    def _current_epsilon(self) -> float:
        if self._ledger is None:
            return float("nan")
        return self._ledger.epsilon(self.config.delta)

    def _count_sim_round(self, status: str, cohort_size: int) -> None:
        if self._m_sim_rounds is not None:
            self._m_sim_rounds.labels(status=status).inc()
            self._m_cohort.observe(float(cohort_size))

    def _record_skipped_round(self, round_index: int) -> None:
        """An empty Poisson sample still counts as a scheduled round."""
        self._ensure_wired()
        self._count_sim_round("skipped", 0)
        epsilon = self._charge_round(self.config.expected_cohort)
        now = self._clock.now if self._clock is not None else 0.0
        self._records.append(
            RoundRecord(
                index=round_index,
                cohort=(),
                included=frozenset(),
                dropped=frozenset(),
                epsilon=epsilon,
                started_at=now,
                completed_at=now,
            )
        )

    def _aggregate_round(
        self, batch: Dataset, round_index: int, cohort: tuple[int, ...]
    ) -> np.ndarray | None:
        per_example = self.model.per_example_gradients(
            batch.features, batch.labels
        )
        if self.mechanism is None:
            return self._plain_round(per_example, round_index, cohort)
        self._ensure_wired()
        assert self.encoder is not None and self.decoder is not None
        started_at = self._clock.now
        if len(cohort) < 2:
            # Bonawitz needs at least two parties; treat as an abort.
            return self._abort_round(round_index, cohort, started_at)
        vectors = {
            client: self.encoder.encode(
                per_example[position],
                self.population.client_rng(
                    round_index, client, PURPOSE_ENCODING
                ),
            )
            for position, client in enumerate(cohort)
        }
        protocol_rng = self.population.round_rng(round_index, PURPOSE_PROTOCOL)
        plans = self.population.plans(round_index, cohort)
        faults = (
            self._chaos.for_round(round_index) if self._chaos else ()
        )
        kill = self._chaos.kill(round_index) if self._chaos else None
        if faults:
            plans = _apply_chaos_plans(plans, cohort, faults)
        recovered = False
        topology = self.config.aggregation_topology()
        try:
            if topology is not None:
                tree_round = HierarchicalSecAggRound(
                    vectors=vectors,
                    modulus=self.config.modulus,
                    clock=self._clock,
                    rng=protocol_rng,
                    topology=topology,
                    threshold_fraction=self.config.threshold_fraction,
                    composer=self.config.compose,
                    plans=plans,
                    phase_timeout=self.config.phase_timeout,
                    backend=self._backend,
                    trace=self.trace,
                    metrics=self._metrics,
                    rebalance=self.config.rebalance,
                )
                outcome = tree_round.execute()
            else:
                threshold = shamir_threshold(
                    self.config.threshold_fraction, len(cohort)
                )

                def flat_round(fail_at: int | None) -> AsyncSecAggRound:
                    return AsyncSecAggRound(
                        vectors=vectors,
                        modulus=self.config.modulus,
                        threshold=threshold,
                        clock=self._clock,
                        rng=protocol_rng,
                        plans=plans,
                        phase_timeout=self.config.phase_timeout,
                        trace=self.trace,
                        metrics=self._metrics,
                        fail_at_phase=fail_at,
                    )

                try:
                    outcome = self._clock.run(
                        flat_round(kill.phase if kill else None).run()
                    )
                except ChaosKillError:
                    if kill is None or not kill.restart:
                        if self._m_recovery is not None:
                            self._m_recovery.labels(outcome="aborted").inc()
                        raise
                    # Restart: re-drive the round with a fresh server.
                    # The aggregate depends only on the included set and
                    # the clients' vectors — masks cancel — so the retry
                    # (whose protocol generators continue from the same
                    # round-scoped stream) releases the same sum the
                    # fault-free round would have.
                    self.trace.record(
                        "chaos-server-restart", round=round_index
                    )
                    if self._m_recovery is not None:
                        self._m_recovery.labels(outcome="resumed").inc()
                    recovered = True
                    outcome = self._clock.run(flat_round(None).run())
        except AggregationError:
            return self._abort_round(round_index, cohort, started_at)
        matches: bool | None = None
        if self.config.verify_aggregate:
            reference = sum_mod(
                np.array(
                    [vectors[client] for client in sorted(outcome.included)]
                ),
                self.config.modulus,
            ).astype(np.int64)
            matches = bool(np.array_equal(reference, outcome.modular_sum))
        self._count_sim_round("completed", len(cohort))
        # Charge dropout (lost noise shares) honestly while keeping the
        # paper's expected-batch convention for Poisson size fluctuation.
        survivor_fraction = len(outcome.included) / len(cohort)
        contributors = max(
            1, math.floor(self.config.expected_cohort * survivor_fraction)
        )
        epsilon = self._charge_round(contributors)
        self._records.append(
            RoundRecord(
                index=round_index,
                cohort=cohort,
                included=outcome.included,
                dropped=outcome.dropped,
                epsilon=epsilon,
                aggregate_matches=matches,
                started_at=outcome.started_at,
                completed_at=outcome.completed_at,
                wire_messages=(
                    outcome.wire.total_messages if outcome.wire else 0
                ),
                wire_bytes=outcome.wire.total_bytes if outcome.wire else 0,
                composer=outcome.composer,
                recovered=recovered,
            )
        )
        decoded = self.decoder.decode(outcome.modular_sum)
        return decoded / self.config.expected_cohort

    def _plain_round(
        self,
        per_example: np.ndarray,
        round_index: int,
        cohort: tuple[int, ...],
    ) -> np.ndarray:
        """Non-private baseline: direct sum, no SecAgg, no ledger."""
        self._count_sim_round("completed", len(cohort))
        self._records.append(
            RoundRecord(
                index=round_index,
                cohort=cohort,
                included=frozenset(cohort),
                dropped=frozenset(),
                epsilon=float("nan"),
                started_at=self._clock.now,
                completed_at=self._clock.now,
            )
        )
        return per_example.sum(axis=0) / self.config.expected_cohort

    def _abort_round(
        self, round_index: int, cohort: tuple[int, ...], started_at: float
    ) -> None:
        """Below-threshold round: no release, conservative ledger charge."""
        self._count_sim_round("aborted", len(cohort))
        epsilon = self._charge_round(self.config.expected_cohort)
        self.trace.record("round-aborted", round=round_index)
        self._records.append(
            RoundRecord(
                index=round_index,
                cohort=cohort,
                included=frozenset(),
                dropped=frozenset(cohort),
                epsilon=epsilon,
                aborted=True,
                started_at=started_at,
                completed_at=self._clock.now,
            )
        )
        return None
